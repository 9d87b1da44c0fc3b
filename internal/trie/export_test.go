package trie

import (
	"fmt"
	"reflect"
	"slices"
)

// LayoutDiff describes how two tries' layouts differ — schema, NumTuples,
// every level's Vals and Starts, the root directory — or returns "" when
// they are the same trie.
func LayoutDiff(got, want *Trie) string {
	if !slices.Equal(got.Attrs, want.Attrs) || got.NumTuples != want.NumTuples || len(got.Levels) != len(want.Levels) {
		return fmt.Sprintf("shape %v/%d tuples/%d levels, want %v/%d/%d",
			got.Attrs, got.NumTuples, len(got.Levels), want.Attrs, want.NumTuples, len(want.Levels))
	}
	for d, w := range want.Levels {
		g := got.Levels[d]
		if !slices.Equal(g.Vals, w.Vals) {
			return fmt.Sprintf("level %d vals %v, want %v", d, g.Vals, w.Vals)
		}
		if !slices.Equal(g.Starts, w.Starts) {
			return fmt.Sprintf("level %d starts %v, want %v", d, g.Starts, w.Starts)
		}
	}
	if !reflect.DeepEqual(got.Root, want.Root) {
		return fmt.Sprintf("root directory %+v, want %+v", got.Root, want.Root)
	}
	return ""
}
