package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"cilkgo/internal/race"
	"cilkgo/internal/sched"
)

// screenCmd runs a named instrumented program once, serially, under the
// SP-bags race detector (§4) and reports every exposed determinacy race.
// Exit status 1 means races were found.
func screenCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	var o opts
	names := make([]string, len(race.Programs))
	for i, p := range race.Programs {
		names[i] = p.Name
	}
	program := fs.String("program", "", strings.Join(names, " | "))
	o.sizeFlags(fs, 256)
	return func(stdout, stderr io.Writer) int {
		i := slices.IndexFunc(race.Programs, func(p race.Program) bool { return p.Name == *program })
		if i < 0 {
			fmt.Fprintf(stderr, "cilk screen: -program must be one of %s\n", strings.Join(names, " | "))
			return 2
		}
		prog := race.Programs[i]
		reports, err := race.Check(func(c *sched.Context, d *race.Detector) { prog.Run(c, d, int(o.n), o.seed) })
		if err != nil {
			fmt.Fprintf(stderr, "cilk screen: program failed: %v\n", err)
			return 2
		}
		if len(reports) == 0 {
			fmt.Fprintf(stdout, "cilkscreen: no races found in %q (guaranteed for this input, §4)\n", prog.Name)
			return 0
		}
		fmt.Fprintf(stdout, "cilkscreen: %d race(s) in %q:\n", len(reports), prog.Name)
		for _, r := range reports {
			fmt.Fprintf(stdout, "  %v\n", r)
		}
		return 1
	}
}
