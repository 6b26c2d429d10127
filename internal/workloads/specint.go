package workloads

// SPECint-like kernels: pointer chasing, hashing, sorting, compression,
// graph traversal and string matching. Integer-dominated with irregular
// control flow, mirroring the dependence shapes of the paper's SPECint set.

const hashMult = uint64(0x9E3779B97F4A7C15)

// genHashJoin builds an open-addressing hash table and probes it,
// the inner loops of a database hash join (≈ SPEC's mcf/gobmk mix of
// dependent loads and data-dependent branches).
func genHashJoin(scale int) Workload {
	sq := scale * scale
	n := 512 * sq          // keys inserted
	probes := 2048 * scale // probe count
	// The probes wrap with & mask, so the table is a power of two of at
	// least 4n slots: 2048·scale² at scales 1, 2, 4 and 8 (256 KB at
	// reference scale: misses matter), rounded up at the others.
	tblSize := 2048
	for tblSize < 4*n {
		tblSize *= 2
	}
	mask := int64(tblSize - 1)

	r := newLCG(0xA5A5)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.intn(1<<30) | 1)
	}
	probeKeys := make([]int64, probes)
	for i := range probeKeys {
		if r.intn(2) == 0 {
			probeKeys[i] = keys[r.intn(uint64(n))]
		} else {
			probeKeys[i] = int64(r.intn(1<<30) | 1)
		}
	}

	// Reference.
	tbl := make([]int64, tblSize)
	slot := func(k int64) uint64 { return (uint64(k) * hashMult >> 33) & uint64(mask) }
	for _, k := range keys {
		h := slot(k)
		for tbl[h] != 0 {
			h = (h + 1) & uint64(mask)
		}
		tbl[h] = k
	}
	var sum uint64
	for _, k := range probeKeys {
		h := slot(k)
		for tbl[h] != 0 {
			if tbl[h] == k {
				sum += uint64(k)
				break
			}
			h = (h + 1) & uint64(mask)
		}
	}

	b := newSrc()
	b.t("	la   x1, tbl")
	b.t("	la   x2, keys")
	b.t("	movi x3, #0            ; i")
	b.t("	movi x4, #%d           ; n", n)
	b.t("	movi x5, #%d           ; mask", mask)
	b.t("	movi x6, #%d           ; hash multiplier", hashMult)
	b.t("	movi x10, #0           ; checksum")
	b.t("ins_loop:")
	b.t("	lsli x7, x3, #3")
	b.t("	add  x7, x2, x7")
	b.t("	ldr  x8, [x7]          ; k")
	b.t("	mul  x9, x8, x6")
	b.t("	lsri x9, x9, #33")
	b.t("	and  x9, x9, x5        ; h")
	b.t("ins_probe:")
	b.t("	lsli x11, x9, #3")
	b.t("	add  x11, x1, x11")
	b.t("	ldr  x12, [x11]")
	b.t("	beq  x12, xzr, ins_store")
	b.t("	addi x9, x9, #1")
	b.t("	and  x9, x9, x5")
	b.t("	b    ins_probe")
	b.t("ins_store:")
	b.t("	str  x8, [x11]")
	b.t("	addi x3, x3, #1")
	b.t("	bne  x3, x4, ins_loop")
	b.t("	la   x2, probes")
	b.t("	movi x3, #0")
	b.t("	movi x4, #%d           ; probe count", probes)
	b.t("lk_loop:")
	b.t("	lsli x7, x3, #3")
	b.t("	add  x7, x2, x7")
	b.t("	ldr  x8, [x7]          ; k")
	b.t("	mul  x9, x8, x6")
	b.t("	lsri x9, x9, #33")
	b.t("	and  x9, x9, x5")
	b.t("lk_probe:")
	b.t("	lsli x11, x9, #3")
	b.t("	add  x11, x1, x11")
	b.t("	ldr  x12, [x11]")
	b.t("	beq  x12, xzr, lk_next ; empty slot: absent")
	b.t("	beq  x12, x8, lk_hit")
	b.t("	addi x9, x9, #1")
	b.t("	and  x9, x9, x5")
	b.t("	b    lk_probe")
	b.t("lk_hit:")
	b.t("	add  x10, x10, x8")
	b.t("lk_next:")
	b.t("	addi x3, x3, #1")
	b.t("	bne  x3, x4, lk_loop")
	b.t("	halt")
	b.space("tbl", tblSize*8)
	b.words("keys", keys)
	b.words("probes", probeKeys)

	return Workload{
		Name:        "hashjoin",
		Suite:       SPECint,
		Description: "open-addressing hash table build + probe (database join inner loop)",
		Source:      b.build(),
		Want:        sum,
	}
}

// genQsortInt sorts an integer array with an iterative quicksort using an
// explicit stack, then checksums the sorted order.
func genQsortInt(scale int) Workload {
	n := 384 * scale
	r := newLCG(0xBEEF)
	arr := make([]int64, n)
	for i := range arr {
		arr[i] = int64(r.intn(1 << 20))
	}

	ref := append([]int64(nil), arr...)
	sortInt64(ref)
	var sum uint64
	for i, v := range ref {
		sum += uint64(i+1) * uint64(v)
	}

	b := newSrc()
	// x1=arr, x2=stack base, x3=sp (index), scratch x4..x14
	b.t("	la   x1, arr")
	b.t("	la   x2, stk")
	b.t("	movi x3, #0")
	// push(0, n-1)
	b.t("	movi x4, #0")
	b.t("	str  x4, [x2, #0]")
	b.t("	movi x4, #%d", n-1)
	b.t("	str  x4, [x2, #8]")
	b.t("	movi x3, #2")
	b.t("qs_loop:")
	b.t("	beq  x3, xzr, qs_done")
	b.t("	subi x3, x3, #2")
	b.t("	lsli x4, x3, #3")
	b.t("	add  x4, x2, x4")
	b.t("	ldr  x5, [x4, #0]      ; lo")
	b.t("	ldr  x6, [x4, #8]      ; hi")
	b.t("	bge  x5, x6, qs_loop   ; lo >= hi: skip (signed)")
	// pivot = arr[hi]
	b.t("	lsli x7, x6, #3")
	b.t("	add  x7, x1, x7")
	b.t("	ldr  x8, [x7]          ; pivot")
	b.t("	mov  x9, x5            ; i = lo")
	b.t("	mov  x11, x5           ; j = lo")
	b.t("part_loop:")
	b.t("	beq  x11, x6, part_done")
	b.t("	lsli x12, x11, #3")
	b.t("	add  x12, x1, x12")
	b.t("	ldr  x13, [x12]        ; a[j]")
	b.t("	bge  x13, x8, part_next ; a[j] >= pivot")
	// swap a[i], a[j]
	b.t("	lsli x14, x9, #3")
	b.t("	add  x14, x1, x14")
	b.t("	ldr  x15, [x14]")
	b.t("	str  x13, [x14]")
	b.t("	str  x15, [x12]")
	b.t("	addi x9, x9, #1")
	b.t("part_next:")
	b.t("	addi x11, x11, #1")
	b.t("	b    part_loop")
	b.t("part_done:")
	// swap a[i], a[hi]
	b.t("	lsli x14, x9, #3")
	b.t("	add  x14, x1, x14")
	b.t("	ldr  x15, [x14]")
	b.t("	ldr  x13, [x7]")
	b.t("	str  x13, [x14]")
	b.t("	str  x15, [x7]")
	// push(lo, i-1), push(i+1, hi)
	b.t("	lsli x4, x3, #3")
	b.t("	add  x4, x2, x4")
	b.t("	str  x5, [x4, #0]")
	b.t("	subi x12, x9, #1")
	b.t("	str  x12, [x4, #8]")
	b.t("	addi x12, x9, #1")
	b.t("	str  x12, [x4, #16]")
	b.t("	str  x6, [x4, #24]")
	b.t("	addi x3, x3, #4")
	b.t("	b    qs_loop")
	b.t("qs_done:")
	// checksum = sum (i+1)*a[i]
	b.t("	movi x10, #0")
	b.t("	movi x3, #0")
	b.t("	movi x4, #%d", n)
	b.t("ck_loop:")
	b.t("	lsli x5, x3, #3")
	b.t("	add  x5, x1, x5")
	b.t("	ldr  x6, [x5]")
	b.t("	addi x7, x3, #1")
	b.t("	mul  x6, x6, x7")
	b.t("	add  x10, x10, x6")
	b.t("	addi x3, x3, #1")
	b.t("	bne  x3, x4, ck_loop")
	b.t("	halt")
	b.words("arr", arr)
	b.space("stk", 64*8*2*8) // generous stack

	return Workload{
		Name:        "qsortint",
		Suite:       SPECint,
		Description: "iterative quicksort with explicit stack + order checksum",
		Source:      b.build(),
		Want:        sum,
	}
}

// genListWalk builds a linked list in shuffled order and chases pointers
// through it, the classic latency-bound SPECint pattern.
func genListWalk(scale int) Workload {
	n := 1024 * scale * scale
	steps := 8192 * scale
	r := newLCG(0x11D)
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.intn(uint64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.intn(1 << 16))
	}

	// Reference: node[perm[i]].next = node[perm[(i+1)%n]]; walk from
	// node[perm[0]] summing values.
	next := make([]int, n)
	for i := 0; i < n; i++ {
		next[perm[i]] = int(perm[(i+1)%n])
	}
	var sum uint64
	cur := int(perm[0])
	for s := 0; s < steps; s++ {
		sum += uint64(vals[cur])
		cur = next[cur]
	}

	b := newSrc()
	// Node layout: 16 bytes [value, nextPtr]. nodes base x1, perm base x2.
	b.t("	la   x1, nodes")
	b.t("	la   x2, perm")
	b.t("	la   x3, vals")
	b.t("	movi x4, #0")
	b.t("	movi x5, #%d", n)
	// First: fill node values.
	b.t("init_loop:")
	b.t("	lsli x6, x4, #3")
	b.t("	add  x7, x3, x6")
	b.t("	ldr  x8, [x7]          ; vals[i]")
	b.t("	lsli x7, x4, #4")
	b.t("	add  x7, x1, x7")
	b.t("	str  x8, [x7]          ; node[i].value")
	b.t("	addi x4, x4, #1")
	b.t("	bne  x4, x5, init_loop")
	// Link: node[perm[i]].next = &node[perm[i+1]] (wrapping).
	b.t("	movi x4, #0")
	b.t("link_loop:")
	b.t("	lsli x6, x4, #3")
	b.t("	add  x6, x2, x6")
	b.t("	ldr  x7, [x6]          ; perm[i]")
	b.t("	addi x8, x4, #1")
	b.t("	bne  x8, x5, link_nowrap")
	b.t("	movi x8, #0")
	b.t("link_nowrap:")
	b.t("	lsli x9, x8, #3")
	b.t("	add  x9, x2, x9")
	b.t("	ldr  x9, [x9]          ; perm[i+1]")
	b.t("	lsli x9, x9, #4")
	b.t("	add  x9, x1, x9        ; &node[perm[i+1]]")
	b.t("	lsli x7, x7, #4")
	b.t("	add  x7, x1, x7")
	b.t("	str  x9, [x7, #8]      ; node[perm[i]].next")
	b.t("	addi x4, x4, #1")
	b.t("	bne  x4, x5, link_loop")
	// Walk.
	b.t("	ldr  x6, [x2]          ; perm[0]")
	b.t("	lsli x6, x6, #4")
	b.t("	add  x6, x1, x6        ; cur")
	b.t("	movi x10, #0")
	b.t("	movi x4, #0")
	b.t("	movi x5, #%d", steps)
	b.t("walk_loop:")
	b.t("	ldr  x7, [x6, #0]")
	b.t("	add  x10, x10, x7")
	b.t("	ldr  x6, [x6, #8]      ; cur = cur.next")
	b.t("	addi x4, x4, #1")
	b.t("	bne  x4, x5, walk_loop")
	b.t("	halt")
	b.space("nodes", n*16)
	b.words("perm", perm)
	b.words("vals", vals)

	return Workload{
		Name:        "listwalk",
		Suite:       SPECint,
		Description: "linked-list build + pointer-chasing walk",
		Source:      b.build(),
		Want:        sum,
	}
}

// genBitops runs a bitwise CRC-style mixer and a SWAR popcount over a word
// stream: long single-use ALU chains.
func genBitops(scale int) Workload {
	n := 512 * scale
	const poly = uint64(0xC96C5795D7870F42)
	r := newLCG(0x0B17)
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(r.next())
	}

	var crc, pcsum uint64
	crc = ^uint64(0)
	for _, dv := range data {
		w := uint64(dv)
		crc ^= w
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ poly
			} else {
				crc >>= 1
			}
		}
		// SWAR popcount.
		x := w
		x = x - ((x >> 1) & 0x5555555555555555)
		x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
		x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
		x = (x * 0x0101010101010101) >> 56
		pcsum += x
	}
	want := crc + pcsum

	b := newSrc()
	b.t("	la   x1, data")
	b.t("	movi x2, #0            ; i")
	b.t("	movi x3, #%d           ; n", n)
	b.t("	movi x4, #-1           ; crc")
	b.t("	movi x5, #%d           ; poly", poly)
	b.t("	movi x10, #0           ; popcount sum")
	b.t("	movi x20, #%d", uint64(0x5555555555555555))
	b.t("	movi x21, #%d", uint64(0x3333333333333333))
	b.t("	movi x22, #%d", uint64(0x0F0F0F0F0F0F0F0F))
	b.t("	movi x23, #%d", uint64(0x0101010101010101))
	b.t("w_loop:")
	b.t("	lsli x6, x2, #3")
	b.t("	add  x6, x1, x6")
	b.t("	ldr  x7, [x6]          ; w")
	b.t("	eor  x4, x4, x7")
	b.t("	movi x8, #8            ; bit rounds")
	b.t("bit_loop:")
	b.t("	andi x9, x4, #1")
	b.t("	lsri x4, x4, #1")
	b.t("	beq  x9, xzr, bit_skip")
	b.t("	eor  x4, x4, x5")
	b.t("bit_skip:")
	b.t("	subi x8, x8, #1")
	b.t("	bne  x8, xzr, bit_loop")
	// popcount(w)
	b.t("	lsri x9, x7, #1")
	b.t("	and  x9, x9, x20")
	b.t("	sub  x7, x7, x9")
	b.t("	lsri x9, x7, #2")
	b.t("	and  x9, x9, x21")
	b.t("	and  x7, x7, x21")
	b.t("	add  x7, x7, x9")
	b.t("	lsri x9, x7, #4")
	b.t("	add  x7, x7, x9")
	b.t("	and  x7, x7, x22")
	b.t("	mul  x7, x7, x23")
	b.t("	lsri x7, x7, #56")
	b.t("	add  x10, x10, x7")
	b.t("	addi x2, x2, #1")
	b.t("	bne  x2, x3, w_loop")
	b.t("	add  x10, x10, x4      ; checksum = popsum + crc")
	b.t("	halt")
	b.words("data", data)

	return Workload{
		Name:        "bitops",
		Suite:       SPECint,
		Description: "CRC-style bit mixing + SWAR popcount chains",
		Source:      b.build(),
		Want:        want,
	}
}

// genRLE run-length-encodes a runs-heavy array and decodes it back,
// mimicking bzip2-style transform loops.
func genRLE(scale int) Workload {
	n := 768 * scale
	r := newLCG(0x41E)
	in := make([]int64, 0, n)
	for len(in) < n {
		v := int64(r.intn(7))
		run := int(r.intn(9)) + 1
		for j := 0; j < run && len(in) < n; j++ {
			in = append(in, v)
		}
	}

	// Reference encode/decode.
	var enc []int64
	for i := 0; i < n; {
		j := i
		for j < n && in[j] == in[i] {
			j++
		}
		enc = append(enc, in[i], int64(j-i))
		i = j
	}
	dec := make([]int64, 0, n)
	for i := 0; i < len(enc); i += 2 {
		for j := int64(0); j < enc[i+1]; j++ {
			dec = append(dec, enc[i])
		}
	}
	var sum uint64
	for i, v := range dec {
		sum += uint64(v) * uint64(i+1)
	}
	sum += uint64(len(enc))

	b := newSrc()
	b.t("	la   x1, in")
	b.t("	la   x2, enc")
	b.t("	movi x3, #0            ; i")
	b.t("	movi x4, #%d           ; n", n)
	b.t("	movi x5, #0            ; enc length (words)")
	b.t("enc_loop:")
	b.t("	bge  x3, x4, enc_done")
	b.t("	lsli x6, x3, #3")
	b.t("	add  x6, x1, x6")
	b.t("	ldr  x7, [x6]          ; v = in[i]")
	b.t("	mov  x8, x3            ; j = i")
	b.t("run_loop:")
	b.t("	addi x8, x8, #1")
	b.t("	bge  x8, x4, run_done")
	b.t("	lsli x9, x8, #3")
	b.t("	add  x9, x1, x9")
	b.t("	ldr  x11, [x9]")
	b.t("	beq  x11, x7, run_loop")
	b.t("run_done:")
	b.t("	lsli x9, x5, #3")
	b.t("	add  x9, x2, x9")
	b.t("	str  x7, [x9, #0]")
	b.t("	sub  x12, x8, x3       ; run length")
	b.t("	str  x12, [x9, #8]")
	b.t("	addi x5, x5, #2")
	b.t("	mov  x3, x8")
	b.t("	b    enc_loop")
	b.t("enc_done:")
	// Decode.
	b.t("	la   x13, dec")
	b.t("	movi x3, #0            ; enc index")
	b.t("	movi x14, #0           ; out index")
	b.t("dec_loop:")
	b.t("	bge  x3, x5, dec_done")
	b.t("	lsli x6, x3, #3")
	b.t("	add  x6, x2, x6")
	b.t("	ldr  x7, [x6, #0]      ; value")
	b.t("	ldr  x8, [x6, #8]      ; run")
	b.t("fill_loop:")
	b.t("	lsli x9, x14, #3")
	b.t("	add  x9, x13, x9")
	b.t("	str  x7, [x9]")
	b.t("	addi x14, x14, #1")
	b.t("	subi x8, x8, #1")
	b.t("	bne  x8, xzr, fill_loop")
	b.t("	addi x3, x3, #2")
	b.t("	b    dec_loop")
	b.t("dec_done:")
	// Checksum.
	b.t("	movi x10, #0")
	b.t("	movi x3, #0")
	b.t("ck_loop:")
	b.t("	lsli x6, x3, #3")
	b.t("	add  x6, x13, x6")
	b.t("	ldr  x7, [x6]")
	b.t("	addi x8, x3, #1")
	b.t("	mul  x7, x7, x8")
	b.t("	add  x10, x10, x7")
	b.t("	addi x3, x3, #1")
	b.t("	bne  x3, x4, ck_loop")
	b.t("	add  x10, x10, x5      ; + encoded length")
	b.t("	halt")
	b.words("in", in)
	b.space("enc", 2*n*8)
	b.space("dec", n*8)

	return Workload{
		Name:        "rle",
		Suite:       SPECint,
		Description: "run-length encode + decode round trip (bzip2-style)",
		Source:      b.build(),
		Want:        sum,
	}
}

// genTreeIns inserts keys into a binary search tree with a bump allocator,
// then looks up a probe set, counting search depth.
func genTreeIns(scale int) Workload {
	n := 1024 * scale * scale
	lookups := 2048 * scale
	r := newLCG(0x7EE)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.intn(1 << 24))
	}
	probeKeys := make([]int64, lookups)
	for i := range probeKeys {
		if r.intn(2) == 0 {
			probeKeys[i] = keys[r.intn(uint64(n))]
		} else {
			probeKeys[i] = int64(r.intn(1 << 24))
		}
	}

	// Reference tree (mirrors the assembly exactly: duplicates go right).
	type node struct {
		key         int64
		left, right int
	}
	nodes := []node{{key: keys[0], left: -1, right: -1}}
	for _, k := range keys[1:] {
		cur := 0
		for {
			if k < nodes[cur].key {
				if nodes[cur].left < 0 {
					nodes[cur].left = len(nodes)
					nodes = append(nodes, node{key: k, left: -1, right: -1})
					break
				}
				cur = nodes[cur].left
			} else {
				if nodes[cur].right < 0 {
					nodes[cur].right = len(nodes)
					nodes = append(nodes, node{key: k, left: -1, right: -1})
					break
				}
				cur = nodes[cur].right
			}
		}
	}
	var sum uint64
	for _, k := range probeKeys {
		cur := 0
		depth := uint64(0)
		for cur >= 0 {
			depth++
			if k == nodes[cur].key {
				sum += depth
				break
			}
			if k < nodes[cur].key {
				cur = nodes[cur].left
			} else {
				cur = nodes[cur].right
			}
		}
	}

	b := newSrc()
	// Node layout 24 bytes: [key, leftPtr, rightPtr]; 0 pointer = nil.
	b.t("	la   x1, pool          ; bump allocator base")
	b.t("	la   x2, keys")
	b.t("	movi x3, #24           ; node size")
	// Create root from keys[0].
	b.t("	ldr  x4, [x2]")
	b.t("	str  x4, [x1, #0]")
	b.t("	str  xzr, [x1, #8]")
	b.t("	str  xzr, [x1, #16]")
	b.t("	add  x5, x1, x3        ; next free")
	b.t("	movi x6, #1            ; i")
	b.t("	movi x7, #%d           ; n", n)
	b.t("ins_loop:")
	b.t("	beq  x6, x7, ins_done")
	b.t("	lsli x8, x6, #3")
	b.t("	add  x8, x2, x8")
	b.t("	ldr  x9, [x8]          ; k")
	b.t("	mov  x11, x1           ; cur = root")
	b.t("walk:")
	b.t("	ldr  x12, [x11, #0]    ; cur.key")
	b.t("	blt  x9, x12, go_left")
	b.t("	ldr  x13, [x11, #16]   ; cur.right")
	b.t("	beq  x13, xzr, put_right")
	b.t("	mov  x11, x13")
	b.t("	b    walk")
	b.t("go_left:")
	b.t("	ldr  x13, [x11, #8]")
	b.t("	beq  x13, xzr, put_left")
	b.t("	mov  x11, x13")
	b.t("	b    walk")
	b.t("put_left:")
	b.t("	str  x5, [x11, #8]")
	b.t("	b    put_common")
	b.t("put_right:")
	b.t("	str  x5, [x11, #16]")
	b.t("put_common:")
	b.t("	str  x9, [x5, #0]")
	b.t("	str  xzr, [x5, #8]")
	b.t("	str  xzr, [x5, #16]")
	b.t("	add  x5, x5, x3")
	b.t("	addi x6, x6, #1")
	b.t("	b    ins_loop")
	b.t("ins_done:")
	// Lookups.
	b.t("	la   x2, probes")
	b.t("	movi x6, #0")
	b.t("	movi x7, #%d", lookups)
	b.t("	movi x10, #0")
	b.t("lk_loop:")
	b.t("	lsli x8, x6, #3")
	b.t("	add  x8, x2, x8")
	b.t("	ldr  x9, [x8]          ; k")
	b.t("	mov  x11, x1")
	b.t("	movi x14, #0           ; depth")
	b.t("search:")
	b.t("	beq  x11, xzr, lk_next")
	b.t("	addi x14, x14, #1")
	b.t("	ldr  x12, [x11, #0]")
	b.t("	beq  x9, x12, found")
	b.t("	blt  x9, x12, s_left")
	b.t("	ldr  x11, [x11, #16]")
	b.t("	b    search")
	b.t("s_left:")
	b.t("	ldr  x11, [x11, #8]")
	b.t("	b    search")
	b.t("found:")
	b.t("	add  x10, x10, x14")
	b.t("lk_next:")
	b.t("	addi x6, x6, #1")
	b.t("	bne  x6, x7, lk_loop")
	b.t("	halt")
	b.space("pool", (n+2)*24)
	b.words("keys", keys)
	b.words("probes", probeKeys)

	return Workload{
		Name:        "treeins",
		Suite:       SPECint,
		Description: "binary search tree insert + probe with depth checksum",
		Source:      b.build(),
		Want:        sum,
	}
}

// genStrMatch does a naive pattern scan over a small-alphabet word stream.
func genStrMatch(scale int) Workload {
	n := 2048 * scale
	const plen = 6
	r := newLCG(0x57A)
	text := make([]int64, n)
	for i := range text {
		text[i] = int64(r.intn(4))
	}
	// Pattern copied from a text position so matches exist.
	start := int(r.intn(uint64(n - plen)))
	pat := append([]int64(nil), text[start:start+plen]...)

	var count uint64
	for i := 0; i+plen <= n; i++ {
		ok := true
		for j := 0; j < plen; j++ {
			if text[i+j] != pat[j] {
				ok = false
				break
			}
		}
		if ok {
			count += uint64(i) + 1
		}
	}

	b := newSrc()
	b.t("	la   x1, text")
	b.t("	la   x2, pat")
	b.t("	movi x3, #0            ; i")
	b.t("	movi x4, #%d           ; n - plen + 1", n-plen+1)
	b.t("	movi x5, #%d           ; plen", plen)
	b.t("	movi x10, #0")
	b.t("outer:")
	b.t("	movi x6, #0            ; j")
	b.t("inner:")
	b.t("	add  x7, x3, x6")
	b.t("	lsli x7, x7, #3")
	b.t("	add  x7, x1, x7")
	b.t("	ldr  x8, [x7]")
	b.t("	lsli x9, x6, #3")
	b.t("	add  x9, x2, x9")
	b.t("	ldr  x11, [x9]")
	b.t("	bne  x8, x11, miss")
	b.t("	addi x6, x6, #1")
	b.t("	bne  x6, x5, inner")
	b.t("	addi x12, x3, #1")
	b.t("	add  x10, x10, x12     ; match: add i+1")
	b.t("miss:")
	b.t("	addi x3, x3, #1")
	b.t("	bne  x3, x4, outer")
	b.t("	halt")
	b.words("text", text)
	b.words("pat", pat)

	return Workload{
		Name:        "strmatch",
		Suite:       SPECint,
		Description: "naive pattern matching over a word stream",
		Source:      b.build(),
		Want:        count,
	}
}

// genDijkstra runs O(V^2) single-source shortest paths on a dense random
// graph (adjacency matrix).
func genDijkstra(scale int) Workload {
	v := 24 * scale
	const inf = int64(1) << 40
	r := newLCG(0xD135)
	adj := make([]int64, v*v)
	for i := 0; i < v; i++ {
		for j := 0; j < v; j++ {
			if i != j && r.intn(4) == 0 {
				adj[i*v+j] = int64(r.intn(15)) + 1
			}
		}
	}

	// Reference.
	dist := make([]int64, v)
	done := make([]bool, v)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	for it := 0; it < v; it++ {
		best, bi := inf+1, -1
		for i := 0; i < v; i++ {
			if !done[i] && dist[i] < best {
				best, bi = dist[i], i
			}
		}
		if bi < 0 {
			break
		}
		done[bi] = true
		for j := 0; j < v; j++ {
			if w := adj[bi*v+j]; w != 0 && dist[bi]+w < dist[j] {
				dist[j] = dist[bi] + w
			}
		}
	}
	var sum uint64
	for i, d := range dist {
		sum += uint64(d) * uint64(i+1)
	}

	b := newSrc()
	b.t("	la   x1, adj")
	b.t("	la   x2, dist")
	b.t("	la   x3, done")
	b.t("	movi x4, #%d           ; V", v)
	b.t("	movi x5, #%d           ; inf", inf)
	// init dist
	b.t("	movi x6, #0")
	b.t("init:")
	b.t("	lsli x7, x6, #3")
	b.t("	add  x8, x2, x7")
	b.t("	str  x5, [x8]")
	b.t("	add  x8, x3, x7")
	b.t("	str  xzr, [x8]")
	b.t("	addi x6, x6, #1")
	b.t("	bne  x6, x4, init")
	b.t("	str  xzr, [x2]         ; dist[0] = 0")
	b.t("	movi x20, #0           ; iteration")
	b.t("iter:")
	// select min unvisited
	b.t("	addi x21, x5, #1       ; best = inf+1")
	b.t("	movi x22, #-1          ; bi")
	b.t("	movi x6, #0")
	b.t("sel:")
	b.t("	lsli x7, x6, #3")
	b.t("	add  x8, x3, x7")
	b.t("	ldr  x9, [x8]")
	b.t("	bne  x9, xzr, sel_next ; visited")
	b.t("	add  x8, x2, x7")
	b.t("	ldr  x9, [x8]")
	b.t("	bge  x9, x21, sel_next")
	b.t("	mov  x21, x9")
	b.t("	mov  x22, x6")
	b.t("sel_next:")
	b.t("	addi x6, x6, #1")
	b.t("	bne  x6, x4, sel")
	b.t("	blt  x22, xzr, dij_done")
	// mark done
	b.t("	lsli x7, x22, #3")
	b.t("	add  x8, x3, x7")
	b.t("	movi x9, #1")
	b.t("	str  x9, [x8]")
	// relax
	b.t("	mul  x23, x22, x4")
	b.t("	lsli x23, x23, #3")
	b.t("	add  x23, x1, x23      ; &adj[bi][0]")
	b.t("	movi x6, #0")
	b.t("relax:")
	b.t("	lsli x7, x6, #3")
	b.t("	add  x8, x23, x7")
	b.t("	ldr  x9, [x8]          ; w")
	b.t("	beq  x9, xzr, relax_next")
	b.t("	add  x9, x9, x21       ; dist[bi] + w")
	b.t("	add  x8, x2, x7")
	b.t("	ldr  x11, [x8]")
	b.t("	bge  x9, x11, relax_next")
	b.t("	str  x9, [x8]")
	b.t("relax_next:")
	b.t("	addi x6, x6, #1")
	b.t("	bne  x6, x4, relax")
	b.t("	addi x20, x20, #1")
	b.t("	bne  x20, x4, iter")
	b.t("dij_done:")
	b.t("	movi x10, #0")
	b.t("	movi x6, #0")
	b.t("ck:")
	b.t("	lsli x7, x6, #3")
	b.t("	add  x8, x2, x7")
	b.t("	ldr  x9, [x8]")
	b.t("	addi x11, x6, #1")
	b.t("	mul  x9, x9, x11")
	b.t("	add  x10, x10, x9")
	b.t("	addi x6, x6, #1")
	b.t("	bne  x6, x4, ck")
	b.t("	halt")
	b.words("adj", adj)
	b.space("dist", v*8)
	b.space("done", v*8)

	return Workload{
		Name:        "dijkstra",
		Suite:       SPECint,
		Description: "dense-graph Dijkstra (O(V^2) selection + relaxation)",
		Source:      b.build(),
		Want:        sum,
	}
}
