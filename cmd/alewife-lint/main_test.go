package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func runLint(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestCleanPackageExitsZero(t *testing.T) {
	out, errOut, code := runLint(t, "-dir", "../..", "./internal/trace")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if out != "" {
		t.Errorf("clean package produced findings:\n%s", out)
	}
}

func TestFindingsExitOne(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "analysis", "testdata", "determinism")
	out, errOut, code := runLint(t, "-dir", dir, "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "time.Now") {
		t.Errorf("findings missing time.Now diagnostic:\n%s", out)
	}
	if !strings.Contains(errOut, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", errOut)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	if _, _, code := runLint(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if _, _, code := runLint(t, "-dir", t.TempDir(), "./..."); code != 2 {
		t.Errorf("load failure outside a module: exit %d, want 2", code)
	}
}
