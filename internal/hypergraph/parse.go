package hypergraph

import (
	"fmt"
	"strings"
)

// ParseQuery parses a natural-join query in the paper's notation:
//
//	R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c)
//
// Atoms may be separated by "⋈", "JOIN" (any case) or commas between
// closing and opening parentheses. Attribute and relation names are
// identifiers ([A-Za-z_][A-Za-z0-9_]*). An optional "Name :- " prefix sets
// the query name.
func ParseQuery(input string) (Query, error) {
	q := Query{Name: "Q"}
	s := strings.TrimSpace(input)
	if i := strings.Index(s, ":-"); i >= 0 {
		q.Name = strings.TrimSpace(s[:i])
		s = s[i+2:]
	}
	// Normalize separators to commas between atoms.
	s = strings.ReplaceAll(s, "⋈", ",")
	s = strings.ReplaceAll(s, "JOIN", ",")
	s = strings.ReplaceAll(s, "join", ",")

	pos := 0
	n := len(s)
	skipWS := func() {
		for pos < n && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == ',') {
			pos++
		}
	}
	ident := func() (string, error) {
		start := pos
		for pos < n && (isAlnum(s[pos]) || s[pos] == '_') {
			pos++
		}
		if pos == start {
			return "", fmt.Errorf("parse query: expected identifier at offset %d in %q", pos, input)
		}
		return s[start:pos], nil
	}
	for {
		skipWS()
		if pos >= n {
			break
		}
		name, err := ident()
		if err != nil {
			return Query{}, err
		}
		skipWS()
		if pos >= n || s[pos] != '(' {
			return Query{}, fmt.Errorf("parse query: expected '(' after %q", name)
		}
		pos++
		var attrs []string
		for {
			skipWS()
			a, err := ident()
			if err != nil {
				return Query{}, err
			}
			attrs = append(attrs, a)
			skipWS()
			if pos < n && s[pos] == ')' {
				pos++
				break
			}
			if pos >= n {
				return Query{}, fmt.Errorf("parse query: unterminated atom %q", name)
			}
		}
		q.Atoms = append(q.Atoms, Atom{Name: name, Attrs: attrs})
	}
	if len(q.Atoms) == 0 {
		return Query{}, fmt.Errorf("parse query: no atoms in %q", input)
	}
	if err := q.Validate(); err != nil {
		return Query{}, fmt.Errorf("parse query: %w", err)
	}
	return q, nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
