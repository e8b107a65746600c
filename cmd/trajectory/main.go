// Command trajectory keeps the per-PR record of the benchmark's numbers,
// TRAJECTORY.json, and the tables EXPERIMENTS.md prints from it, each
// between "<!-- trajectory NAME -->" and "<!-- end -->". Run from the root
// of the repo:
//
//	go run ./cmd/trajectory
//	go run ./cmd/trajectory -pr N [-label TEXT] DIR
//
// With no arguments it is make trajectory-check: it fails unless the
// newest ISSUE that CHANGES.md names has points in every table and every
// block of EXPERIMENTS.md is what TRAJECTORY.json prints. With -pr it adds
// PR N's points from the result lines make bench-pair leaves in DIR (the
// benchmark's -out format: base.jsonl and change.jsonl from --trace 0,
// base.trace.jsonl and change.trace.jsonl from --trace 1), the median of
// each side's runs, replacing the PR's earlier points of that workload and
// seed, sets the PR's label if one is given, and rewrites the blocks.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"

	"repro/internal/bench"
)

const (
	record = "TRAJECTORY.json"
	doc    = "EXPERIMENTS.md"
	kind   = "trajectory"
)

func main() {
	pr := flag.Int("pr", 0, "add this PR's points from the bench-pair directory given as the argument")
	label := flag.String("label", "", "with -pr: the PR's \"what it changed\" label")
	flag.Parse()
	var err error
	switch {
	case *pr > 0 && flag.NArg() == 1:
		err = add(*pr, *label, flag.Arg(0))
	case *pr == 0 && flag.NArg() == 0 && *label == "":
		err = check()
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
}

// check is make trajectory-check.
func check() error {
	f, err := Load(record)
	if err != nil {
		return err
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		return err
	}
	n := 0
	for _, m := range regexp.MustCompile(`ISSUE ([0-9]+)`).FindAllSubmatch(changes, -1) {
		v, _ := strconv.Atoi(string(m[1])) // [0-9]+ parses unless it overflows
		n = max(n, v)
	}
	text, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	problems := bench.CheckBlocks(string(text), kind, f.Blocks())
	for _, t := range f.Tables {
		if !f.has(t, n) {
			problems = append(problems, fmt.Sprintf("table %s has no point of PR %d, the newest ISSUE in CHANGES.md", t.Name, n))
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "trajectory-check: %s\n", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems in %s or %s", len(problems), record, doc)
	}
	fmt.Printf("trajectory-check: PR %d has points in all %d tables of %s, and %s prints them\n", n, len(f.Tables), record, doc)
	return nil
}
