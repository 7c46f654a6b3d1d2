package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/core"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	var want []Record
	for i := 0; i < 1000; i++ {
		rec := Record{
			Core: r.Intn(16),
			Access: workload.Access{
				Addr:  r.Uint64(),
				Write: r.Bool(0.3),
				Code:  r.Bool(0.2),
			},
		}
		if rec.Access.Code {
			rec.Access.Write = false
		}
		want = append(want, rec)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 1000 {
		t.Fatalf("Count = %d", w.Count())
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Cores() != 16 {
		t.Fatalf("Cores = %d", rd.Cores())
	}
	for i, wantRec := range want {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wantRec {
			t.Fatalf("record %d = %+v, want %+v", i, got, wantRec)
		}
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header accepted")
	}
	bad := append([]byte("NOTMAGIC"), make([]byte, 12)...)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewWriter(io.Discard, 0); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewWriter(io.Discard, 256); err == nil {
		t.Error("too many cores accepted")
	}
}

func TestWriterRejectsBadCore(t *testing.T) {
	w, _ := NewWriter(io.Discard, 4)
	if err := w.Write(Record{Core: 4}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := w.Write(Record{Core: -1}); err == nil {
		t.Error("negative core accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Write(Record{Core: 1, Access: workload.Access{Addr: 42}})
	w.Flush()
	// Chop the last record in half.
	data := buf.Bytes()[:buf.Len()-5]
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Read(); err == nil {
		t.Error("truncated record read successfully")
	}
}

func TestCaptureDeterminism(t *testing.T) {
	prof, _ := workload.ByName("db2")
	var a, b bytes.Buffer
	na, err := Capture(&a, prof, 16, 9, 5000)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := Capture(&b, prof, 16, 9, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("captures with identical seeds differ")
	}
	var c bytes.Buffer
	if _, err := Capture(&c, prof, 16, 10, 5000); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("captures with different seeds identical")
	}
}

// TestReplayEquivalence verifies the core promise: replaying a captured
// trace reproduces the generator-driven simulation exactly.
func TestReplayEquivalence(t *testing.T) {
	prof, _ := workload.ByName("apache")
	cfg := cmpsim.Config{Kind: cmpsim.SharedL2, Cores: 4, TrackedSets: 64, TrackedAssoc: 2}
	const seed, n = 77, 40000

	slice := cmpsim.CuckooSize{Ways: 4, Sets: 64}.Spec()
	live, err := cmpsim.New(cfg, prof, seed, slice)
	if err != nil {
		t.Fatal(err)
	}
	live.Run(n)

	var buf bytes.Buffer
	if _, err := Capture(&buf, prof, cfg.Cores, seed, n); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := cmpsim.New(cfg, prof, seed+999, slice) // generators unused on replay
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(rd, replayed); err != nil {
		t.Fatal(err)
	}

	a, b := live.DirStats(), replayed.DirStats()
	for ev := range core.NumEvents {
		if a.Events[ev] != b.Events[ev] {
			t.Errorf("event %s: live %d, replay %d", ev, a.Events[ev], b.Events[ev])
		}
	}
	if a.Attempts.Mean() != b.Attempts.Mean() {
		t.Errorf("attempts: live %f, replay %f", a.Attempts.Mean(), b.Attempts.Mean())
	}
	if a.ForcedEvictions != b.ForcedEvictions {
		t.Errorf("forced: live %d, replay %d", a.ForcedEvictions, b.ForcedEvictions)
	}
	if live.CacheStats() != replayed.CacheStats() {
		t.Errorf("cache stats diverged: %+v vs %+v", live.CacheStats(), replayed.CacheStats())
	}
}

// TestReplayTooManyCores: a trace recorded on more cores than the system
// has is an error before any record is injected, not a panic mid-run.
func TestReplayTooManyCores(t *testing.T) {
	prof, _ := workload.ByName("apache")
	var buf bytes.Buffer
	if _, err := Capture(&buf, prof, 32, 1, 1000); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cmpsim.New(cmpsim.DefaultConfig(cmpsim.SharedL2), prof, 1, cmpsim.ChosenCuckooSize(cmpsim.SharedL2).Spec())
	if err != nil {
		t.Fatal(err)
	}
	n, err := Replay(rd, sys)
	if err == nil || !strings.Contains(err.Error(), "32 cores") {
		t.Fatalf("Replay = %d, %v; want an error naming the trace's 32 cores", n, err)
	}
	if n != 0 || sys.Accesses() != 0 {
		t.Fatalf("Replay injected %d records (%d accesses) before failing", n, sys.Accesses())
	}
}

// TestCaptureRejectsBadProfile: a profile the generators cannot run is
// an error, not a panic.
func TestCaptureRejectsBadProfile(t *testing.T) {
	em3d, _ := workload.ByName("em3d")
	for _, tc := range []struct {
		prof  workload.Profile
		cores int
	}{{workload.Profile{}, 4}, {em3d, 1}} {
		var buf bytes.Buffer
		if n, err := Capture(&buf, tc.prof, tc.cores, 1, 10); err == nil {
			t.Errorf("Capture(%q on %d cores) = %d, nil; want an error", tc.prof.Name, tc.cores, n)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	w, _ := NewWriter(io.Discard, 16)
	rec := Record{Core: 3, Access: workload.Access{Addr: 0xdeadbeef, Write: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCloseFinalizesCount: Close patches the header's record count in
// place when the sink is an io.WriterAt (a file), so readers of a
// finished capture see an exact Total; stream sinks keep the zero-count
// fallback.
func TestCloseFinalizesCount(t *testing.T) {
	prof, err := workload.ByName("db2")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "capture.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1234
	count, err := Capture(f, prof, 4, 9, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("captured %d, want %d", count, n)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rd, err := NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Total() != n {
		t.Fatalf("header Total = %d, want %d (Close should have patched it)", rd.Total(), n)
	}
	got := 0
	for {
		if _, err := rd.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != n {
		t.Fatalf("read %d records, want %d", got, n)
	}

	// A non-seekable sink keeps the zero count but stays readable.
	var buf bytes.Buffer
	if _, err := Capture(&buf, prof, 4, 9, 57); err != nil {
		t.Fatal(err)
	}
	rd2, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd2.Total() != 0 {
		t.Fatalf("buffer capture Total = %d, want 0 (read-to-EOF fallback)", rd2.Total())
	}
	got = 0
	for {
		if _, err := rd2.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != 57 {
		t.Fatalf("buffer capture read %d records, want 57", got)
	}
}
