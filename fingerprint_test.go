package fsicp_test

import (
	"os"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/incr"
)

// TestFingerprintsPinned pins the procedure keys of constants.mf and
// its source fingerprint. The source fingerprint was recorded before
// the keys' writers were pooled and before the REF layouts moved into
// the MOD/REF solution; the procedure keys were re-recorded when they
// began to cover each procedure's own global segment, which fixes its
// frame layout. Disk-store entries and Session reuse are addressed by
// these keys, so a change that moves one invalidates every stored
// summary.
func TestFingerprintsPinned(t *testing.T) {
	src, err := os.ReadFile("testdata/programs/constants.mf")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fsicp.SourceFingerprint(string(src)), "461a7476bb762e4a2bc0c9aa7f5164dd45d5987a03e164a0155c4ed58e361eea"; got != want {
		t.Errorf("SourceFingerprint = %s, want %s", got, want)
	}
	prog, err := fsicp.Load("constants.mf", string(src))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"main":  "08e5e6ba293257892141debfaca206b7b6622af711663309c65791430d59b727",
		"chain": "ef2d4606700861995c4264abffc3f789cea3872d5221453fce4fd3953f60d014",
		"emit2": "a756f08dac8b1b58a96171eae49d20fea0d1a3a2b082fc8ec0a96e3e811acd9b",
		"emit":  "d4c5d31a1cd0e81cb527dfbb182980fbdea9f8a69b6e3a7e6be88d2877b87384",
	}
	ctx := fsicp.ContextOf(prog)
	if len(ctx.CG.Reachable) != len(want) {
		t.Fatalf("%d reachable procedures, want %d", len(ctx.CG.Reachable), len(want))
	}
	for _, p := range ctx.CG.Reachable {
		// Twice: a pooled writer must come back empty.
		for range 2 {
			if got := incr.ProcFingerprint(p, ctx.Prog.FuncOf[p], ctx.MR.RefGlobals); got != want[p.Name] {
				t.Errorf("ProcFingerprint(%s) = %s, want %s", p.Name, got, want[p.Name])
			}
		}
	}
}
