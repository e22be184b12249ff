package e2e

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"micgraph/internal/kernels"
)

// Same seed, same script — byte for byte — and a different seed must
// actually change the script (a generator that ignores its seed would pass
// the first check trivially).
func TestChaosScriptDeterminism(t *testing.T) {
	const n = 200
	a := scriptLog(genScript(*chaosSeed, n))
	b := scriptLog(genScript(*chaosSeed, n))
	if !bytes.Equal(a, b) {
		t.Fatalf("INVARIANT script-deterministic: two generations for seed %d differ:\n%s", *chaosSeed, firstDiff(a, b))
	}
	c := scriptLog(genScript(*chaosSeed+1, n))
	if bytes.Equal(a, c) {
		t.Fatalf("scripts for seeds %d and %d are identical; generator is ignoring the seed", *chaosSeed, *chaosSeed+1)
	}
}

// The coverage post-pass must hold for any seed: every long-enough script
// exercises overload, corruption and a mid-flight restart. Across the
// seeds, the kernel submissions reach every entry of the kernels table and
// the unknown variant.
func TestChaosScriptCoverage(t *testing.T) {
	var bodies strings.Builder
	for seed := uint64(1); seed <= 20; seed++ {
		have := map[string]bool{}
		expectFail := false
		for _, a := range genScript(seed, 75) {
			have[a.Op] = true
			expectFail = expectFail || a.ExpectFail
			bodies.WriteString(a.Body + "\n")
		}
		for _, op := range []string{opSubmit, opOverload, opCorrupt, opRestart, opProbe} {
			if !have[op] {
				t.Errorf("seed %d: 75-action script has no %s op", seed, op)
			}
		}
		if !expectFail {
			t.Errorf("seed %d: 75-action script never submits a corrupted file", seed)
		}
	}
	for _, e := range kernels.Table() {
		if job := fmt.Sprintf(`{"kind":%q,"variant":%q,`, e.Kind, e.Variant); !strings.Contains(bodies.String(), job) {
			t.Errorf("no script submits a %s/%s job", e.Kind, e.Variant)
		}
	}
	if !strings.Contains(bodies.String(), `"variant":"bogus"`) {
		t.Error("no script submits the unknown variant")
	}
}

// Two full live-daemon replay runs with the same seed must produce
// byte-identical logs: same accepted jobs, same per-job result payloads,
// same injected failures, same export artifact hashes, same final totals.
func TestChaosReplayDeterminism(t *testing.T) {
	const jobs = 10
	a := runReplay(t, *chaosSeed, jobs)
	b := runReplay(t, *chaosSeed, jobs)
	if !bytes.Equal(a, b) {
		t.Fatalf("INVARIANT replay-deterministic: two runs for seed %d differ:\n%s", *chaosSeed, firstDiff(a, b))
	}
	t.Logf("replay log (%d bytes):\n%s", len(a), a)
}

// firstDiff renders the first differing line of two logs for the failure
// message.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  run A: %s\n  run B: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
