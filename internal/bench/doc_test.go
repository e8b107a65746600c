package bench

import (
	"strings"
	"testing"
)

const blockDoc = "intro\n<!-- k a -->\nA1\nA2\n<!-- end -->\nmiddle\n<!-- k b -->\nB\n<!-- end -->\n<!-- other a -->\nX\n<!-- end -->\nclose\n"

// TestCheckBlocks holds CheckBlocks to one problem per block that
// differs, is missing, names nothing or is there twice, and to blocks of
// its own kind only.
func TestCheckBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		doc  string
		want []Block
		has  []string // one substring per problem, in order
	}{
		{"equal", blockDoc, []Block{{"a", "A1\nA2\n"}, {"b", "B\n"}}, nil},
		{"differs", blockDoc, []Block{{"a", "A1\n"}, {"b", "B\n"}},
			[]string{"<!-- k a --> is not what its record prints; it should read:\n<!-- k a -->\nA1\n<!-- end -->\n"}},
		{"missing", blockDoc, []Block{{"a", "A1\nA2\n"}, {"b", "B\n"}, {"c", "C\n"}},
			[]string{"no block <!-- k c -->; it should read:\n<!-- k c -->\nC\n<!-- end -->\n"}},
		{"names nothing", blockDoc, []Block{{"a", "A1\nA2\n"}}, []string{"<!-- k b --> names nothing"}},
		{"twice", blockDoc + "<!-- k b -->\nB\n<!-- end -->\n", []Block{{"a", "A1\nA2\n"}, {"b", "B\n"}},
			[]string{"two blocks <!-- k b -->"}},
		{"no end", "x\n<!-- k a -->\nA\n", []Block{{"a", "A\n"}}, []string{"has no \"<!-- end -->\" line"}},
	} {
		got := CheckBlocks(tc.doc, "k", tc.want)
		if len(got) != len(tc.has) {
			t.Errorf("%s: %d problems %q, want %d", tc.name, len(got), got, len(tc.has))
			continue
		}
		for i, p := range got {
			if !strings.Contains(p, tc.has[i]) {
				t.Errorf("%s: problem %q does not hold %q", tc.name, p, tc.has[i])
			}
		}
	}
}

// TestWriteBlocks rewrites the named blocks of one kind and nothing else,
// so that CheckBlocks then finds them equal.
func TestWriteBlocks(t *testing.T) {
	want := []Block{{"a", "new\n"}, {"b", ""}}
	out, err := WriteBlocks(blockDoc, "k", want)
	if err != nil {
		t.Fatal(err)
	}
	if exp := "intro\n<!-- k a -->\nnew\n<!-- end -->\nmiddle\n<!-- k b -->\n<!-- end -->\n<!-- other a -->\nX\n<!-- end -->\nclose\n"; out != exp {
		t.Errorf("got\n%s\nwant\n%s", out, exp)
	}
	if p := CheckBlocks(out, "k", want); len(p) > 0 {
		t.Errorf("after WriteBlocks: %q", p)
	}
	if _, err := WriteBlocks(blockDoc, "k", []Block{{"c", "C\n"}}); err == nil {
		t.Error("WriteBlocks wrote a block the document does not have")
	}
}
