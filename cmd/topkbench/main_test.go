package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed with
// TOPKBENCH_BE_MAIN=1 it runs main() over its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TOPKBENCH_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// topkbench runs the command and returns its stdout, stderr and exit code.
func topkbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TOPKBENCH_BE_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
		t.Fatalf("topkbench %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestUnknownExperimentIsUsageError: a retired serving-stack id or a typo
// exits 2 with the valid ids and a pointer to the end-to-end benchmark,
// before any earlier id in the list has generated a dataset or printed a
// table.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	for _, id := range []string{"sweep", "rebuild", "wal", "overload", "tenants", "fig11"} {
		stdout, stderr, code := topkbench(t, "-experiment", "stats,"+id, "-scale", "small")
		if code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", id, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%s: stats ran before the id list was checked:\n%s", id, stdout)
		}
		for _, want := range []string{`"` + id + `"`, "stats fig3 fig5 fig6 fig7 tab5 fig8 fig9 fig10 tab6 kernels", "bash benchmark/run.sh"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s: message lacks %q:\n%s", id, want, stderr)
			}
		}
	}
}

// TestJSONNeedsKernels: -json names the kernels experiment's output file and
// nothing else, so without kernels it is a usage error, not a silently
// appended experiment.
func TestJSONNeedsKernels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	stdout, stderr, code := topkbench(t, "-experiment", "stats", "-json", path)
	if code != 2 || stdout != "" || !strings.Contains(stderr, "kernels") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a usage error naming kernels", code, stdout, stderr)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("-json file written although nothing ran")
	}
}

func TestStatsPrintsBothDatasets(t *testing.T) {
	stdout, stderr, code := topkbench(t, "-experiment", "stats", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"== Dataset statistics (NYT-like) ==", "== Dataset statistics (Yago-like) =="} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}
