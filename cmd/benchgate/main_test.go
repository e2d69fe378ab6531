package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"topk/internal/bench"
)

// TestMain lets the test binary stand in for the command: re-executed with
// BENCHGATE_BE_MAIN=1 it runs main() over its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHGATE_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func rec(name string, min, med, max int64) bench.KernelRecord {
	return bench.KernelRecord{Name: name, K: 10, N: 4000, NsPerOp: med, MinNsPerOp: min, MaxNsPerOp: max}
}

// TestGateDecision pins the one rule: a row fails only when its median is
// more than the threshold above the baseline's and the two spreads are
// disjoint. Rows on one side only are reported and never fail.
func TestGateDecision(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur []bench.KernelRecord
		want      int
		status    string
	}{
		{"unchanged", []bench.KernelRecord{rec("a", 95, 100, 105)}, []bench.KernelRecord{rec("a", 96, 101, 104)}, 0, "| ok |"},
		{"regression beyond noise", []bench.KernelRecord{rec("a", 95, 100, 105)}, []bench.KernelRecord{rec("a", 125, 130, 140)}, 1, "REGRESSION"},
		{"same delta inside overlapping spreads", []bench.KernelRecord{rec("a", 80, 100, 126)}, []bench.KernelRecord{rec("a", 125, 130, 140)}, 0, "within noise"},
		{"disjoint spreads under the threshold", []bench.KernelRecord{rec("a", 99, 100, 101)}, []bench.KernelRecord{rec("a", 104, 105, 106)}, 0, "| ok |"},
		{"faster", []bench.KernelRecord{rec("a", 95, 100, 105)}, []bench.KernelRecord{rec("a", 40, 50, 60)}, 0, "| ok |"},
		{"new row", nil, []bench.KernelRecord{rec("b", 900, 1000, 1100)}, 0, "| new |"},
		{"removed row", []bench.KernelRecord{rec("a", 95, 100, 105)}, nil, 0, "| removed |"},
		{"one of two regresses", []bench.KernelRecord{rec("a", 95, 100, 105), rec("b", 9, 10, 11)},
			[]bench.KernelRecord{rec("a", 95, 100, 105), rec("b", 19, 20, 21)}, 1, "| b | 10 [9, 11] | 20 [19, 21] | +100.0% | **REGRESSION** |"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := gate(&out, tc.base, tc.cur, 0.10); got != tc.want {
				t.Fatalf("gate = %d regressions, want %d\n%s", got, tc.want, out.String())
			}
			if !strings.Contains(out.String(), tc.status) {
				t.Fatalf("table lacks %q:\n%s", tc.status, out.String())
			}
		})
	}
}

// TestLoadRoundTripAndRejects: what bench.WriteKernelJSON writes, load reads
// back unchanged; a duplicate name or a file recorded before the spread
// fields existed is an error (main exits 2 on it), never a silent pass.
func TestLoadRoundTripAndRejects(t *testing.T) {
	dir := t.TempDir()
	want := []bench.KernelRecord{rec("compile/k=10", 22, 24, 31), rec("knn-native/k=10/n=4000", 11800, 12000, 12900)}
	want[1].AllocsPerOp = 1
	var buf bytes.Buffer
	if err := bench.WriteKernelJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}

	for name, body := range map[string]string{
		"duplicate name":   `[{"name":"a","nsPerOp":5,"minNsPerOp":4,"maxNsPerOp":6},{"name":"a","nsPerOp":5,"minNsPerOp":4,"maxNsPerOp":6}]`,
		"no spread fields": `[{"name":"a","k":10,"n":4000,"nsPerOp":157,"allocsPerOp":0}]`,
		"median outside":   `[{"name":"a","nsPerOp":9,"minNsPerOp":4,"maxNsPerOp":6}]`,
		"not json":         `nope`,
	} {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(path); err == nil {
			t.Errorf("%s: load accepted %s", name, body)
		}
	}
	if _, err := load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("load accepted a missing file")
	}
}

// TestExitCodes runs the command itself: 0 inside the gate, 1 on a
// regression, 2 on input it cannot gate.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...bench.KernelRecord) string {
		var buf bytes.Buffer
		if err := bench.WriteKernelJSON(&buf, recs); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", rec("a", 95, 100, 105))
	same := write("same.json", rec("a", 94, 99, 107))
	slow := write("slow.json", rec("a", 190, 200, 210))
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`[{"name":"a","k":10,"n":4000,"nsPerOp":100,"allocsPerOp":0}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"within gate", []string{"-baseline", base, "-current", same}, 0},
		{"regression", []string{"-baseline", base, "-current", slow}, 1},
		{"baseline without spread", []string{"-baseline", legacy, "-current", same}, 2},
		{"no -current", []string{"-baseline", base}, 2},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "BENCHGATE_BE_MAIN=1")
		out, err := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != tc.want {
			t.Errorf("%s: exit %d (%v), want %d\n%s", tc.name, got, err, tc.want, out)
		}
	}
}
