package bench

import (
	"fmt"
	"strings"
)

// Block is one generated block of a document: the text between a line
// "<!-- KIND NAME -->" and the next line "<!-- end -->", which a program
// prints from a committed record. Text holds whole lines, each ending in
// a newline.
type Block struct {
	Name, Text string
}

const blockEnd = "<!-- end -->\n"

// blocks returns doc's blocks of kind in document order, each with the
// offsets of its text, and an error for a marker with no end.
func blocks(doc, kind string) ([]Block, [][2]int, error) {
	open := "\n<!-- " + kind + " "
	var bs []Block
	var at [][2]int
	for off := 0; ; {
		i := strings.Index(doc[off:], open)
		if i < 0 {
			return bs, at, nil
		}
		start := off + i + len(open)
		name, _, ok := strings.Cut(doc[start:], " -->\n")
		if !ok || strings.Contains(name, "\n") {
			return nil, nil, fmt.Errorf("a <!-- %s --> marker at byte %d does not end its line with -->", kind, start)
		}
		start += len(name) + len(" -->\n")
		n := strings.Index(doc[start:], blockEnd)
		if n < 0 || (n > 0 && doc[start+n-1] != '\n') {
			return nil, nil, fmt.Errorf("the block <!-- %s %s --> has no %q line", kind, name, strings.TrimSpace(blockEnd))
		}
		bs = append(bs, Block{name, doc[start : start+n]})
		at = append(at, [2]int{start, start + n})
		off = start + n
	}
}

// CheckBlocks holds doc's blocks of kind to want, one block per entry,
// and returns one problem for each block that differs from its entry,
// each entry with no block, each block no entry names and each name
// with two blocks. A problem of the first two kinds ends with the block
// as it should read, markers included, ready to paste.
func CheckBlocks(doc, kind string, want []Block) []string {
	got, _, err := blocks(doc, kind)
	if err != nil {
		return []string{err.Error()}
	}
	have := map[string]string{}
	var problems []string
	for _, b := range got {
		if _, dup := have[b.Name]; dup {
			problems = append(problems, fmt.Sprintf("two blocks <!-- %s %s -->", kind, b.Name))
		}
		have[b.Name] = b.Text
	}
	for _, w := range want {
		text, ok := have[w.Name]
		block := fmt.Sprintf("<!-- %s %s -->\n%s%s", kind, w.Name, w.Text, blockEnd)
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("no block <!-- %s %s -->; it should read:\n%s", kind, w.Name, block))
		case text != w.Text:
			problems = append(problems, fmt.Sprintf("the block <!-- %s %s --> is not what its record prints; it should read:\n%s", kind, w.Name, block))
		}
		delete(have, w.Name)
	}
	for _, b := range got {
		if _, left := have[b.Name]; left {
			problems = append(problems, fmt.Sprintf("the block <!-- %s %s --> names nothing that prints", kind, b.Name))
			delete(have, b.Name)
		}
	}
	return problems
}

// WriteBlocks returns doc with the text of each of its blocks of kind
// replaced by want's entry of that name; a block no entry names keeps
// its text, and an entry with no block is an error.
func WriteBlocks(doc, kind string, want []Block) (string, error) {
	got, at, err := blocks(doc, kind)
	if err != nil {
		return "", err
	}
	text := map[string]string{}
	for _, w := range want {
		text[w.Name] = w.Text
	}
	var out strings.Builder
	prev := 0
	for i, b := range got {
		t, ok := text[b.Name]
		if !ok {
			continue
		}
		out.WriteString(doc[prev:at[i][0]])
		out.WriteString(t)
		prev = at[i][1]
		delete(text, b.Name)
	}
	out.WriteString(doc[prev:])
	for _, w := range want {
		if _, missing := text[w.Name]; missing {
			return "", fmt.Errorf("no block <!-- %s %s --> to write", kind, w.Name)
		}
	}
	return out.String(), nil
}
