package ranking

import (
	"strings"
	"testing"
)

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	rs, err := ReadText(strings.NewReader("# header\n\n[1, 2, 3]\n  \n# mid\n3 2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || !rs[0].Equal(Ranking{1, 2, 3}) || !rs[1].Equal(Ranking{3, 2, 1}) {
		t.Fatalf("parsed %v", rs)
	}
}

// TestReadTextErrorNamesFileLine: the bad ranking is the second one but sits
// on line 6 of the input — the error must say 6, the line an editor shows.
func TestReadTextErrorNamesFileLine(t *testing.T) {
	in := "# generated\n\n[1, 2, 3]\n# next\n\n[4, x, 6]\n[7, 8, 9]\n"
	_, err := ReadText(strings.NewReader(in))
	if err == nil || !strings.HasPrefix(err.Error(), "line 6:") {
		t.Fatalf("error %v, want it to start with \"line 6:\"", err)
	}
	// Duplicate items are a per-line error too.
	_, err = ReadText(strings.NewReader("\n\n[1, 1]\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "line 3:") {
		t.Fatalf("error %v, want it to start with \"line 3:\"", err)
	}
}
