package main

import "time"

// calibRef is what one calibration loop takes on the reference host: the
// median over several hundred samples on a 2-vCPU x86-64 VM (Go 1.24).
// Host-time metrics are reported at that host speed.
const calibRef = 3500 * time.Microsecond

// rateAcc accumulates work — instructions, or grid runs — and the host time
// spent on it. The time is kept raw and scaled to the reference host speed:
// time gathered since the last calibration sample waits in seg until the
// next sample, and then counts at the mean speed the two samples measured.
type rateAcc struct {
	n              uint64
	raw, norm, seg time.Duration
}

func (a *rateAcc) add(n uint64, d time.Duration) {
	a.n += n
	a.raw += d
	a.seg += d
}

// mips returns the work per reference-speed second, in millions.
func (a *rateAcc) mips() float64 { return perSecond(a.n, a.norm) / 1e6 }

// rawMIPS returns the work per measured second, in millions.
func (a *rateAcc) rawMIPS() float64 { return perSecond(a.n, a.raw) / 1e6 }

// mean returns the reference-speed seconds per unit of work.
func (a *rateAcc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.norm.Seconds() / float64(a.n)
}

func perSecond(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// calibrate times the calibration loop, records the sample for
// host.calib_ms, and settles the time every accumulator gathered since the
// previous sample. The benchmark calls it after every kernel and around
// every sweep grid, so the speed it measures is the speed the work saw.
func (b *bench) calibrate() {
	c := calibLoop()
	b.calib = append(b.calib, float64(c)/1e6)
	prev := b.lastCalib
	if prev == 0 {
		prev = c
	}
	b.lastCalib = c
	f := speedFactor(prev, c)
	for _, a := range []*rateAcc{&b.det[0], &b.det[1], &b.det[2], &b.ff, &b.an, &b.cold, &b.warm} {
		a.norm += time.Duration(float64(a.seg) * f)
		a.seg = 0
	}
}

// speedFactor scales host time measured between two calibration samples to
// the reference host speed.
func speedFactor(before, after time.Duration) float64 {
	return float64(calibRef) / (float64(before+after) / 2)
}

var calibSink uint64

// calibLoop is the benchmark-owned calibration loop: an xorshift sequence
// with a data-dependent branch, register-only. It does the same work at
// every commit, so its time moves only with the host's speed. Of the loops
// tried (register-only, 1 MiB and 16 MiB table walks) it tracked the
// simulator's slow host phases best.
func calibLoop() time.Duration {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			acc += x
		} else {
			acc ^= x >> 3
		}
	}
	calibSink += acc
	return time.Since(t0)
}
