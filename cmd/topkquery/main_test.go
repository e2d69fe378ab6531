package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"topk/internal/persist"
	"topk/internal/ranking"
)

// TestMain lets the test binary stand in for the command: re-executed with
// TOPKQUERY_BE_MAIN=1 it runs main() over its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TOPKQUERY_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func topkquery(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TOPKQUERY_BE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("topkquery %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestMigrateLegacySnapshot is the offline migration: -load-snapshot decodes
// a v1 or v2 file, -save-snapshot rewrites it as v3 with every id where it
// was — tombstoned slots stay tombstoned, trailing ones included — and the
// result loads (and queries) like any v3 snapshot.
func TestMigrateLegacySnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		legacy []byte
		want   []ranking.Ranking
	}{
		{"v1", []byte{
			'K', 'R', 'K', 'T', 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, // n=2, k=2
			1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0,
		}, []ranking.Ranking{{1, 2}, {2, 1}}},
		{"v2", []byte{
			'K', 'R', 'K', 'T', 2, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0, // n=5, k=2
			1, 1, 0, 0, 0, 2, 0, 0, 0, // live [1 2]
			0,                         // tombstone
			1, 2, 0, 0, 0, 1, 0, 0, 0, // live [2 1]
			0, 0, // trailing tombstones
		}, []ranking.Ranking{{1, 2}, nil, {2, 1}, nil, nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old, migrated := filepath.Join(dir, "old.bin"), filepath.Join(dir, "new.v3")
			if err := os.WriteFile(old, tc.legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			topkquery(t, "-load-snapshot", old, "-save-snapshot", migrated)
			pc, err := persist.OpenPagedFile(migrated)
			if err != nil {
				t.Fatalf("migrated file is not a v3 snapshot: %v", err)
			}
			if !reflect.DeepEqual(pc.Slots(), tc.want) {
				t.Fatalf("migrated slots %v, want %v", pc.Slots(), tc.want)
			}
			out := topkquery(t, "-load-snapshot", migrated, "-index", "inverted", "-q", "[1, 2]", "-theta", "0")
			if !strings.Contains(out, "1 results") {
				t.Fatalf("query over the migrated snapshot:\n%s", out)
			}
		})
	}
}
