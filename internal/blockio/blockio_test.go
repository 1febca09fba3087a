package blockio

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestStoreReadAt(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	s := NewStore(data, 16)
	p := make([]byte, 10)
	if err := s.ReadAt(p, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data[5:15]) {
		t.Error("payload mismatch")
	}
	if s.Size() != 100 {
		t.Errorf("Size = %d", s.Size())
	}
}

func TestStoreBounds(t *testing.T) {
	s := NewStore(make([]byte, 10), 4)
	if err := s.ReadAt(make([]byte, 5), 8); err == nil {
		t.Error("read past end should fail")
	}
	if err := s.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset should fail")
	}
	if err := s.ReadAt(nil, 10); err != nil {
		t.Errorf("empty read at end should succeed: %v", err)
	}
}

func TestBlockAccounting(t *testing.T) {
	s := NewStore(make([]byte, 1024), 16)
	// Read spanning blocks 0..2 (offset 5, length 40 → last byte 44, block 2).
	if err := s.ReadAt(make([]byte, 40), 5); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reads != 1 || st.BytesRead != 40 || st.BlocksRead != 3 {
		t.Errorf("stats = %+v, want 1 read, 40 bytes, 3 blocks", st)
	}
	if st.Seeks != 1 {
		t.Errorf("first read should count as a seek, got %d", st.Seeks)
	}
}

func TestSequentialReadsNoExtraSeeks(t *testing.T) {
	s := NewStore(make([]byte, 4096), 16)
	// 16 sequential 64-byte reads: only the first is a seek.
	for i := 0; i < 16; i++ {
		if err := s.ReadAt(make([]byte, 64), int64(i*64)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Seeks != 1 {
		t.Errorf("sequential reads produced %d seeks, want 1", st.Seeks)
	}
	// 16 reads × 64 bytes = 1024 bytes over 16-byte blocks = 64 blocks.
	if st.BlocksRead != 64 {
		t.Errorf("BlocksRead = %d, want 64", st.BlocksRead)
	}
}

func TestScatteredReadsSeek(t *testing.T) {
	s := NewStore(make([]byte, 4096), 16)
	offsets := []int64{0, 2048, 128, 3000}
	for _, off := range offsets {
		if err := s.ReadAt(make([]byte, 8), off); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Seeks != int64(len(offsets)) {
		t.Errorf("scattered reads produced %d seeks, want %d", st.Seeks, len(offsets))
	}
}

func TestReadContinuingSameBlockNotSeek(t *testing.T) {
	s := NewStore(make([]byte, 256), 64)
	if err := s.ReadAt(make([]byte, 10), 0); err != nil {
		t.Fatal(err)
	}
	// Continues inside block 0: next expected block is 1, first block here is
	// 0 = next-1, so not a seek.
	if err := s.ReadAt(make([]byte, 10), 10); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Seeks != 1 {
		t.Errorf("continuation within block counted as seek: %+v", st)
	}
}

func TestResetStats(t *testing.T) {
	s := NewStore(make([]byte, 64), 16)
	_ = s.ReadAt(make([]byte, 8), 0)
	s.ResetStats()
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, BytesRead: 2, BlocksRead: 3, Seeks: 4}
	b := Stats{Reads: 10, BytesRead: 20, BlocksRead: 30, Seeks: 40}
	if got := a.Add(b); got != (Stats{Reads: 11, BytesRead: 22, BlocksRead: 33, Seeks: 44}) {
		t.Errorf("Add = %+v", got)
	}
}

func TestDiskModelTime(t *testing.T) {
	m := DiskModel{BlockSize: 1000, SeekTime: 10 * time.Millisecond, Bandwidth: 1e6}
	// 100 blocks × 1000 B / 1e6 B/s = 100 ms, plus 2 seeks × 10 ms = 120 ms.
	got := m.Time(Stats{BlocksRead: 100, Seeks: 2})
	if got != 120*time.Millisecond {
		t.Errorf("Time = %v, want 120ms", got)
	}
}

func TestDefaultDiskModel(t *testing.T) {
	m := DefaultDiskModel()
	// Reading 50 MB of blocks should model ≈1 s.
	blocks := int64(50*1e6) / int64(m.BlockSize)
	d := m.Time(Stats{BlocksRead: blocks, Seeks: 1})
	if d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Errorf("50MB read modeled as %v, want ≈1s", d)
	}
}

func TestWriterMemory(t *testing.T) {
	w := NewWriter()
	off1, err := w.Append([]byte("hello"))
	if err != nil || off1 != 0 {
		t.Fatalf("Append 1: off=%d err=%v", off1, err)
	}
	off2, err := w.Append([]byte("world"))
	if err != nil || off2 != 5 {
		t.Fatalf("Append 2: off=%d err=%v", off2, err)
	}
	if w.Offset() != 10 {
		t.Errorf("Offset = %d", w.Offset())
	}
	if string(w.Bytes()) != "helloworld" {
		t.Errorf("Bytes = %q", w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestWriterReserve: a memory writer told how much is coming builds its image
// in place — appends up to the reserved size neither allocate nor move what
// is there — and an append past it still works.
func TestWriterReserve(t *testing.T) {
	rec := bytes.Repeat([]byte{7}, 734)
	w := NewWriter()
	if _, err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.Reserve(1000 * len(rec))
	first := &w.Bytes()[0]
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ { // AllocsPerRun runs it twice
			if _, err := w.Append(rec); err != nil {
				t.Error(err)
			}
		}
	})
	if allocs != 0 || &w.Bytes()[0] != first {
		t.Errorf("appending into reserved room: %v allocations, image moved: %v", allocs, &w.Bytes()[0] != first)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(1011 * len(rec)); w.Offset() != want || int64(len(w.Bytes())) != want {
		t.Errorf("offset %d, image %d bytes, want %d", w.Offset(), len(w.Bytes()), want)
	}

	f, err := CreateFile(filepath.Join(t.TempDir(), "dev.bin"))
	if err != nil {
		t.Fatal(err)
	}
	f.Reserve(1 << 20) // nothing to size: the file grows as it is written
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterFileAndFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.bin")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 10000)
	if _, err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Size() != 10000 {
		t.Fatalf("Size = %d", s.Size())
	}
	p := make([]byte, 100)
	if err := s.ReadAt(p, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, payload[:100]) {
		t.Error("payload mismatch")
	}
	st := s.Stats()
	if st.Reads != 1 || st.BlocksRead != 1 || st.Seeks != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.ReadAt(p, 9990); err == nil {
		t.Error("read past end should fail")
	}
}

func TestWriterBytesPanicsForFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.bin")
	w, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer func() {
		if recover() == nil {
			t.Error("Bytes on file writer should panic")
		}
	}()
	w.Bytes()
}

func TestFaultDevice(t *testing.T) {
	s := NewStore(make([]byte, 64), 16)
	f := &FaultDevice{Inner: s, FailEvery: 3}
	var fails int
	for i := 0; i < 9; i++ {
		if err := f.ReadAt(make([]byte, 4), 0); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("got %d injected failures in 9 reads, want 3", fails)
	}
	// Disabled injection never fails.
	f2 := &FaultDevice{Inner: s}
	for i := 0; i < 10; i++ {
		if err := f2.ReadAt(make([]byte, 4), 0); err != nil {
			t.Fatalf("disabled injector failed: %v", err)
		}
	}
}
