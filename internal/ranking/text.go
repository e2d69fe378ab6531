package ranking

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadText parses a text collection: one ranking per line in the form Parse
// accepts, blank lines and lines starting with '#' skipped. A parse error
// names the line of the input it occurred on, counting skipped lines.
func ReadText(r io.Reader) ([]Ranking, error) {
	var out []Ranking
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rk, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, rk)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadTextFile is ReadText over the file at path; "-" reads standard input.
func ReadTextFile(path string) ([]Ranking, error) {
	if path == "-" {
		return ReadText(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadText(f)
}
