// Command paperfigs regenerates every table and figure of the paper's
// evaluation from live runs of the Go mesher and solver at laptop
// scale, fitting the section 5 model forms and extrapolating to the
// paper's scales. Each experiment prints a block whose id matches the
// per-experiment index in DESIGN.md and EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"
	"strings"
)

type experiment struct {
	id   string
	desc string
	run  func(quick bool) (fmt.Stringer, error)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	var (
		only  = flag.String("only", "", "comma-separated experiment ids (default: all)")
		quick = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	exps := experimentList()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.desc)
		}
		return
	}
	exps, err := selectExperiments(exps, *only)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range exps {
		fmt.Printf("==== %s: %s\n", e.id, e.desc)
		res, err := e.run(*quick)
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Println(res)
	}
}

// selectExperiments keeps the experiments named in only (comma-separated
// ids, case-insensitive; empty keeps all) in list order. An id that names
// no experiment is an error, so a stale -only list fails instead of
// silently running less.
func selectExperiments(exps []experiment, only string) ([]experiment, error) {
	if only == "" {
		return exps, nil
	}
	known := make([]string, len(exps))
	for i, e := range exps {
		known[i] = e.id
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("unknown experiment id %q (known: %s)", id, strings.Join(known, ", "))
		}
		selected[id] = true
	}
	var out []experiment
	for _, e := range exps {
		if selected[e.id] {
			out = append(out, e)
		}
	}
	return out, nil
}
