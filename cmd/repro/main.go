// Command repro regenerates every table and figure of the paper's
// evaluation, printing the same series the paper plots, and runs the
// registered benchmark suites against their committed records.
//
// Usage:
//
//	repro -all              # every figure, table and suite
//	repro -fig 1,2,7        # specific figures
//	repro -table1           # the overhead breakdown
//	repro -suite ablations  # the extension experiments
//	repro -suite rma,scale -baseline . -out out
//	                        # run suites, gate each against ./BENCH_<name>.json,
//	                        # write the fresh records to out/
//	repro -explain anchors/low-latency-mpi-1b-round-trip
//	                        # re-run one committed number and show where
//	                        # its time went
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	figs := flag.String("fig", "", "comma-separated figure numbers (1-9)")
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	matmul := flag.Bool("matmul", false, "run the matrix-multiply experiment (§6.1)")
	all := flag.Bool("all", false, "run everything")
	iters := flag.Int("iters", 5, "repetitions per point")
	svgDir := flag.String("svg", "", "also write each figure, a suite's included, as an SVG chart into this directory")
	suiteSpec := flag.String("suite", "", "comma-separated benchmark suites to run, or \"all\" (an unknown name lists the registered ones)")
	baselineDir := flag.String("baseline", "", "with -suite: gate each suite against BENCH_<name>.json in this directory and exit nonzero on any point missing or moved (the static floors apply regardless); with -explain: the directory of the committed records (default .)")
	outDir := flag.String("out", "", "with -suite: write each fresh BENCH_<name>.json into this directory")
	explain := flag.String("explain", "", "re-run the committed point KEY (suite/coordinates, e.g. workloads/halo/mem) with every world observed, and exit nonzero if it no longer reproduces its record; an unknown key lists the suite's")
	flag.Parse()

	o := bench.Opts{Iters: *iters}
	if *explain != "" {
		same, err := bench.Explain(o, *explain, cmp.Or(*baselineDir, "."), os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		if !same {
			os.Exit(1)
		}
		return
	}
	chart := func(f bench.Figure) {
		if *svgDir == "" {
			return
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			log.Fatal(err)
		}
		name := strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(f.ID, " ", "-"), "§", "s")) + ".svg"
		path := filepath.Join(*svgDir, name)
		if err := os.WriteFile(path, []byte(f.SVG()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %s\n\n", path)
	}
	emit := func(f bench.Figure) {
		fmt.Println(f)
		chart(f)
	}

	want := map[string]bool{}
	if *figs != "" {
		for _, f := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}
	if *all {
		for n := 1; n <= 9; n++ {
			want[fmt.Sprint(n)] = true
		}
		*table1, *matmul, *suiteSpec = true, true, "all"
	}
	if len(want) == 0 && !*table1 && !*matmul && *suiteSpec == "" {
		flag.Usage()
		return
	}
	var suites []bench.Suite
	if *suiteSpec != "" {
		var err error
		if suites, err = bench.Suites(*suiteSpec); err != nil {
			log.Fatal(err)
		}
	}

	for n := 1; n <= 9; n++ {
		if !want[fmt.Sprint(n)] {
			continue
		}
		f, err := bench.PaperFigure(o, n)
		if err != nil {
			log.Fatalf("figure %d: %v", n, err)
		}
		emit(f)
	}
	if *table1 {
		tab, err := bench.Table1(o)
		if err != nil {
			log.Fatalf("table 1: %v", err)
		}
		fmt.Println(tab)
	}
	if *matmul {
		f, err := bench.PaperFigure(o, 10)
		if err != nil {
			log.Fatalf("matmul: %v", err)
		}
		emit(f)
	}

	// Every suite runs even after one fails its gate, so one invocation
	// reports every regression and writes every record.
	failed := false
	for _, s := range suites {
		res, err := s.RunDir(o, *baselineDir, *outDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Text)
		for _, f := range res.Figures {
			chart(f)
		}
		if *outDir != "" {
			log.Printf("wrote %s", filepath.Join(*outDir, s.File()))
		}
		for _, f := range res.Findings {
			log.Printf("%s gate: %s", s.Name, f)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
