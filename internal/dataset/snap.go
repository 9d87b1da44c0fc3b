package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"adj/internal/relation"
)

// ReadSNAP parses a SNAP-format edge list: one "src dst" (or tab-separated)
// pair per line, '#' comment lines ignored. This is the format of every
// graph in the paper's Table I, so users with the real downloads can run
// the benchmarks on them (cmd/adj -dataset path/to/file.txt).
func ReadSNAP(r io.Reader, name string) (*relation.Relation, error) {
	out := relation.New(name, "src", "dst")
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("snap: line %d: want 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("snap: line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("snap: line %d: %w", lineNo, err)
		}
		if u == v {
			continue // drop self loops, as the paper's preprocessing does
		}
		out.Append(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return out.SortDedup(), nil
}

// LoadSNAPFile reads a SNAP edge list from disk.
func LoadSNAPFile(path string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	return ReadSNAP(f, name)
}

// WriteSNAP writes a binary relation as a SNAP edge list.
func WriteSNAP(w io.Writer, r *relation.Relation) error {
	if r.Arity() != 2 {
		return fmt.Errorf("snap: relation %q is not binary", r.Name)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d edges\n", r.Name, r.Len())
	dst := r.Column(1)
	for i, u := range r.Column(0) {
		fmt.Fprintf(bw, "%d\t%d\n", u, dst[i])
	}
	return bw.Flush()
}
