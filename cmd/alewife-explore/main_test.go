package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runExplore(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestCleanSpaceExitsZero(t *testing.T) {
	out, _, code := runExplore(t, "-nodes", "3", "-ops", "8", "-runs", "200")
	if code != 0 {
		t.Fatalf("clean exploration exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "no violation") {
		t.Errorf("success line missing:\n%s", out)
	}
}

func TestMutationFoundExitsOne(t *testing.T) {
	out, _, code := runExplore(t, "-fault", "drop-inval", "-seed", "1", "-lines", "3")
	if code != 1 {
		t.Fatalf("mutated exploration exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "violation:") {
		t.Errorf("violation report malformed:\n%s", out)
	}
	if !strings.Contains(out, "counterexample trace:") {
		t.Errorf("trace not printed without -out:\n%s", out)
	}
}

func TestOutAndReplayRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "cex.trace")
	args := []string{"-fault", "no-retransmit", "-faultpackets", "6",
		"-mix", "2,2,0,0,10,4,4,2,2", "-ops", "10", "-seed", "1", "-out", trace}
	out, _, code := runExplore(t, args...)
	if code != 1 {
		t.Fatalf("exploration exited %d, want 1:\n%s", code, out)
	}
	first, _, code := runExplore(t, "-replay", trace)
	if code != 1 {
		t.Fatalf("replay exited %d, want 1:\n%s", code, first)
	}
	second, _, _ := runExplore(t, "-replay", trace)
	if first != second {
		t.Fatalf("replays not byte-identical:\n--- 1 ---\n%s--- 2 ---\n%s", first, second)
	}
	if !strings.Contains(first, "violation:") {
		t.Errorf("replay output missing violation:\n%s", first)
	}
}

func TestConfigErrorsExitTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown-fault":         {"-fault", "bogus"},
		"bad-mix-word":          {"-mix", "1,2,x"},
		"bad-mix-len":           {"-mix", "1,2,3"},
		"missing-trace":         {"-replay", filepath.Join(t.TempDir(), "nope.trace")},
		"negative-depth":        {"-depth", "-1"},
		"negative-runs":         {"-runs", "-1"},
		"negative-width":        {"-width", "-1"},
		"negative-faultpackets": {"-faultpackets", "-1"},
	} {
		t.Run(name, func(t *testing.T) {
			_, errOut, code := runExplore(t, args...)
			if code != 2 {
				t.Fatalf("exited %d, want 2 (stderr: %s)", code, errOut)
			}
			if errOut == "" {
				t.Error("no diagnostic on stderr")
			}
		})
	}
}

func TestReplayRejectsCorruptTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("alewife-explore trace v1\nsteps 1\ns 5/2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code := runExplore(t, "-replay", path)
	if code != 2 || !strings.Contains(errOut, "pick out of range") {
		t.Fatalf("corrupt trace: exit %d, stderr %q", code, errOut)
	}
}
