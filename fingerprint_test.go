package fsicp_test

import (
	"os"
	"testing"

	fsicp "fsicp"
	"fsicp/internal/incr"
)

// TestFingerprintsPinned pins the procedure keys of constants.mf and
// its source fingerprint to values recorded before the keys' writers
// were pooled and before the REF layouts moved into the MOD/REF
// solution. Disk-store entries and Session reuse are addressed by
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
		"main":  "215e3b04b74ba90d7f7836565f7f3d69d34e18f744fd7c7713796a4919987138",
		"chain": "ce798d41f42c22bc4fe120cb5ac8c7abcb03004d1fe399d35177aecbc0c6881c",
		"emit2": "6c625eae109d440a5cb94c9835ef4c8bd8a1d43ead4360682e4babf431078513",
		"emit":  "1b7d89339f3fdbb9ba9285ea866c5011b1ee9cf00520605247cb947e875cb89a",
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
