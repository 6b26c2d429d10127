package blob

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func TestDirRoundTrip(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Get("missing.json"); ok || err != nil {
		t.Fatalf("absent object: ok=%v err=%v", ok, err)
	}
	want := []byte("hello fabric")
	if err := d.Put("abc123.json", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get("abc123.json")
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("get = %q ok=%v err=%v", got, ok, err)
	}
	// Overwrite is last-write-wins.
	if err := d.Put("abc123.json", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := d.Get("abc123.json"); string(got) != "v2" {
		t.Fatalf("after overwrite: %q", got)
	}
}

func TestDirRejectsUnsafeNames(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".", "..", "../escape", "a/b", `a\b`, ".hidden"} {
		if err := d.Put(name, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", name)
		}
		if _, _, err := d.Get(name); err == nil {
			t.Errorf("Get(%q) accepted", name)
		}
	}
}

func TestHandlerAndRemote(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses, puts int
	h := &Handler{
		Store: d,
		OnGet: func(hit bool) {
			if hit {
				hits++
			} else {
				misses++
			}
		},
		OnPut: func(int) { puts++ },
	}
	mux := http.NewServeMux()
	mux.Handle("/objects/", h)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	r := NewRemote(ts.URL, nil)
	if _, ok, err := r.Get("nope.bin"); ok || err != nil {
		t.Fatalf("remote absent: ok=%v err=%v", ok, err)
	}
	want := []byte{1, 2, 3, 0, 255}
	if err := r.Put("deadbeef.ckpt", want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := r.Get("deadbeef.ckpt")
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("remote get = %v ok=%v err=%v", got, ok, err)
	}
	if hits != 1 || misses != 1 || puts != 1 {
		t.Fatalf("hooks: hits=%d misses=%d puts=%d", hits, misses, puts)
	}
	// The object really landed in the backing directory.
	if data, err := os.ReadFile(filepath.Join(dir, "deadbeef.ckpt")); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("backing file: %v %v", data, err)
	}
	// Path traversal is rejected at the HTTP layer.
	resp, err := http.Get(ts.URL + "/objects/..%2Fescape")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("traversal GET served: %d", resp.StatusCode)
	}
}

func TestReadThrough(t *testing.T) {
	back, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rt := &ReadThrough{Local: local, Back: back}

	// Put goes to both sides.
	if err := rt.Put("a.json", []byte("A")); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store{back, local} {
		if got, ok, _ := s.Get("a.json"); !ok || string(got) != "A" {
			t.Fatalf("after Put, side missing: %q ok=%v", got, ok)
		}
	}

	// An object only in the backing store is filled into the local cache on
	// first Get and served locally afterwards.
	if err := back.Put("b.json", []byte("B")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := rt.Get("b.json"); err != nil || !ok || string(got) != "B" {
		t.Fatalf("read-through get: %q ok=%v err=%v", got, ok, err)
	}
	if got, ok, _ := local.Get("b.json"); !ok || string(got) != "B" {
		t.Fatalf("local fill missing: %q ok=%v", got, ok)
	}
	if _, ok, err := rt.Get("absent.json"); ok || err != nil {
		t.Fatalf("absent through read-through: ok=%v err=%v", ok, err)
	}
}
