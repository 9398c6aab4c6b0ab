package main

import (
	"bytes"
	"strings"
	"testing"
)

func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListShowsAllFigures(t *testing.T) {
	out, _, code := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "barrier"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list missing %q:\n%s", id, out)
		}
	}
}

func TestSingleExperimentRuns(t *testing.T) {
	out, _, code := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"==> fig7", "msg_MBps", "cycle decomposition"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperimentExitsOne(t *testing.T) {
	_, errOut, code := runBench(t, "-experiment", "fig99")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr: %s", errOut)
	}
}

func TestLossFlagChangesResultsDeterministically(t *testing.T) {
	clean, _, code := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	a, _, codeA := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick", "-loss", "0.01")
	b, _, codeB := runBench(t, "-experiment", "fig7", "-nodes", "4", "-quick", "-loss", "0.01")
	if codeA != 0 || codeB != 0 {
		t.Fatalf("lossy exits %d, %d", codeA, codeB)
	}
	if a != b {
		t.Fatal("identical lossy invocations produced different output")
	}
	if a == clean {
		t.Fatal("-loss 0.01 changed nothing: faults not reaching the experiment")
	}
	if _, _, code := runBench(t, "-experiment", "fig7", "-loss", "0.9"); code != 2 {
		t.Errorf("absurd -loss: exit %d, want 2", code)
	}
}

func TestNoActionExitsTwo(t *testing.T) {
	if _, _, code := runBench(t); code != 2 {
		t.Errorf("no action: exit %d, want 2", code)
	}
	if _, _, code := runBench(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// Every experiment needs a home node and a remote one: node counts below 2
// are usage errors, not panics or NaN tables.
func TestTooFewNodesExitsTwo(t *testing.T) {
	for _, n := range []string{"0", "-1", "1"} {
		_, errOut, code := runBench(t, "-all", "-quick", "-nodes", n)
		if code != 2 {
			t.Errorf("-nodes %s: exit %d, want 2", n, code)
		}
		if !strings.Contains(errOut, "-nodes must be at least 2") {
			t.Errorf("-nodes %s: stderr %q, want the usage message", n, errOut)
		}
	}
}
