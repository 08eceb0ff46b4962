package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"fsicp/internal/faultinject"
	"fsicp/internal/incr"
	"fsicp/internal/lattice"
	"fsicp/internal/resilience"
	"fsicp/internal/val"
)

func testSummary(n int64) *incr.ProcSummary {
	return &incr.ProcSummary{
		Entry: []lattice.Elem{lattice.Const(val.Int(n))},
		Sites: []incr.SiteValues{{
			Reachable: true,
			Args:      []lattice.Elem{lattice.Const(val.Int(n)), lattice.BottomElem()},
		}},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Disk {
	t.Helper()
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func TestPutGetAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	want := testSummary(7)
	d.Put("key-a", want)

	// Same process, same handle.
	got, ok := d.Get("key-a")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after Put: %+v, %v", got, ok)
	}

	// Fresh handle: a cold process starts warm.
	d2 := mustOpen(t, dir, Options{})
	got, ok = d2.Get("key-a")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get from fresh handle: %+v, %v", got, ok)
	}
	if d2.Generation() != d.Generation()+1 {
		t.Fatalf("generation not advanced across opens: %d then %d", d.Generation(), d2.Generation())
	}
	if _, ok := d2.Get("key-b"); ok {
		t.Fatal("Get of never-stored key hit")
	}
	st := d2.Stats()
	if st.DiskHits != 1 || st.DiskMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDegradedNeverStored(t *testing.T) {
	d := mustOpen(t, t.TempDir(), Options{})
	d.Put("k", &incr.ProcSummary{Degraded: true})
	d.Put("k2", nil)
	if st := d.Stats(); st.DiskWrites != 0 {
		t.Fatalf("degraded/nil summary written: %+v", st)
	}
}

// entryFiles returns the stored entry files, sorted.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() && filepath.Ext(path) == entryExt {
			out = append(out, path)
		}
		return nil
	})
	return out
}

func TestCorruptionDegradesToMiss(t *testing.T) {
	kinds := []faultinject.FileCorruption{
		faultinject.Truncate, faultinject.BitFlip, faultinject.VersionSkew,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, Options{})
			d.Put("k", testSummary(3))
			files := entryFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("want 1 entry file, got %d", len(files))
			}
			for seed := uint64(1); seed <= 8; seed++ {
				if err := faultinject.CorruptFile(files[0], kind, seed); err != nil {
					t.Fatalf("CorruptFile: %v", err)
				}
				if _, ok := d.Get("k"); !ok {
					break // detected and dropped, as required
				}
				// Get returned ok: the corruption must have been a no-op
				// (e.g. truncation to full length); the decoded summary is
				// checksum-verified, so this is still sound. Re-write and
				// try the next seed.
				t.Logf("seed %d: corruption was a no-op", seed)
				d.Put("k", testSummary(3))
				files = entryFiles(t, dir)
			}
			st := d.Stats()
			if st.Corrupt == 0 {
				t.Fatal("no corruption counted")
			}
			if got := entryFiles(t, dir); len(got) != 0 {
				t.Fatalf("corrupt entry not removed: %v", got)
			}
			degr := d.Degradations()
			if len(degr) == 0 || degr[0].Reason != resilience.ReasonCacheCorrupt || degr[0].Pass != "store" {
				t.Fatalf("degradations = %+v", degr)
			}
			// The next Put must repopulate and the next Get must hit.
			d.Put("k", testSummary(3))
			if _, ok := d.Get("k"); !ok {
				t.Fatal("store did not recover after corruption")
			}
		})
	}
}

func TestWrongKeyHashRejected(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	d.Put("k1", testSummary(1))
	files := entryFiles(t, dir)
	// Serve k1's (checksum-valid) bytes under k2's path.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	other := d.path("k2")
	os.MkdirAll(filepath.Dir(other), 0o755)
	os.WriteFile(other, data, 0o644)
	if _, ok := d.Get("k2"); ok {
		t.Fatal("mis-keyed entry accepted")
	}
	if st := d.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEviction(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{MaxBytes: 1024})
	// Old cohort, then a generation boundary, then a young cohort big
	// enough to blow the cap.
	for i := 0; i < 10; i++ {
		d.Put("old-"+strconv.Itoa(i), testSummary(int64(i)))
	}
	d.EndRun()
	for i := 0; i < 20; i++ {
		d.Put("new-"+strconv.Itoa(i), testSummary(int64(100+i)))
	}
	st := d.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %dB cap: %+v (size %d)", 1024, st, d.Size())
	}
	if d.Size() > 1024 {
		t.Fatalf("size %d still above cap", d.Size())
	}
	// The old cohort must be evicted before the young one.
	oldLeft, newLeft := 0, 0
	for i := 0; i < 10; i++ {
		if _, ok := d.Get("old-" + strconv.Itoa(i)); ok {
			oldLeft++
		}
	}
	for i := 0; i < 20; i++ {
		if _, ok := d.Get("new-" + strconv.Itoa(i)); ok {
			newLeft++
		}
	}
	if oldLeft != 0 {
		t.Fatalf("%d old-generation entries survived while %d young remain", oldLeft, newLeft)
	}
	if newLeft == 0 {
		t.Fatal("eviction emptied the store entirely")
	}
}

func TestTieredPromotion(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	d.Put("k", testSummary(5))

	mem := incr.NewMemStore()
	tiered := incr.NewTiered(mem, d)
	want := testSummary(5)
	got, ok := tiered.Get("k")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("tiered Get: %+v, %v", got, ok)
	}
	// Promoted: the second lookup must be served by L1.
	before := d.Stats()
	if _, ok := tiered.Get("k"); !ok {
		t.Fatal("second Get missed")
	}
	if after := d.Stats(); after.DiskHits != before.DiskHits {
		t.Fatal("second Get reached the disk layer; promotion failed")
	}
	st := tiered.Stats()
	if st.MemHits != 1 || st.DiskHits != 1 {
		t.Fatalf("tiered stats = %+v", st)
	}
}

// TestGenerationStampSurvivesConcurrentHandles: two handles over one
// directory — the two-daemons / two-CI-jobs sharing a -cache-dir
// scenario — hammer writes and run boundaries concurrently. The
// GENERATION stamp must always parse as a single integer (atomic
// replace: no torn or interleaved writes) and must never move
// backwards (monotonic merge), so eviction ordering stays coherent
// across processes. Before the atomic-rename stamp, the plain
// WriteFile truncate+write pairs of the two handles could interleave
// into a stamp like "90" from "10" racing "9".
func TestGenerationStampSurvivesConcurrentHandles(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	b := mustOpen(t, dir, Options{})
	floor := a.Generation()
	if g := b.Generation(); g > floor {
		floor = g
	}

	var wg sync.WaitGroup
	for h, d := range []*Disk{a, b} {
		wg.Add(1)
		go func(h int, d *Disk) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.Put("gen-race-"+strconv.Itoa(h)+"-"+strconv.Itoa(i), testSummary(int64(i)))
				d.EndRun()
			}
		}(h, d)
	}
	wg.Wait()

	data, err := os.ReadFile(filepath.Join(dir, "GENERATION"))
	if err != nil {
		t.Fatalf("GENERATION unreadable after concurrent handles: %v", err)
	}
	g, err := strconv.ParseUint(string(data), 10, 64)
	if err != nil {
		t.Fatalf("GENERATION corrupt after concurrent handles: %q: %v", data, err)
	}
	// Each handle advanced 100 times; the shared clock must reflect at
	// least one handle's full progress and never have moved backwards.
	if g < floor+100 {
		t.Errorf("GENERATION = %d, want >= %d (stamp moved backwards or lost writes)", g, floor+100)
	}
	if g > floor+2*100+1 {
		t.Errorf("GENERATION = %d jumped past the %d increments issued (torn stamp?)", g, 2*100)
	}

	// A third open must land strictly above everything it can read.
	c := mustOpen(t, dir, Options{})
	if c.Generation() <= floor {
		t.Errorf("reopen generation %d not above floor %d", c.Generation(), floor)
	}
}

// TestGenerationStampAtomicReplaceKeepsParseability: a reader polling
// the stamp mid-write must never observe a partial value. (With
// os.WriteFile this fails in principle via truncate/write windows;
// with CreateTemp+Rename the file content is replaced atomically.)
func TestGenerationStampAtomicReplaceKeepsParseability(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, err := os.ReadFile(filepath.Join(dir, "GENERATION"))
			if err != nil {
				continue // mid-rename on non-POSIX would error, never corrupt
			}
			if len(data) == 0 {
				t.Error("observed empty GENERATION stamp")
				return
			}
			if _, err := strconv.ParseUint(string(data), 10, 64); err != nil {
				t.Errorf("observed unparseable GENERATION stamp %q", data)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		d.EndRun()
	}
	close(stop)
	wg.Wait()
}
