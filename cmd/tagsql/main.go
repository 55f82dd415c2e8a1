// Command tagsql is an interactive SQL shell over the TAG-join executor
// (default) or the baseline relational engine. It loads a generated
// TPC-H-like or TPC-DS-like database, reads one query per line (or a
// -query argument), and prints rows plus executor statistics.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

func main() {
	workload := flag.String("db", "tpch", "database to load: tpch or tpcds")
	scale := flag.Float64("scale", 1, "scale factor")
	seed := flag.Int64("seed", 2021, "generator seed")
	engine := flag.String("engine", "tag", "engine: tag or refdb")
	query := flag.String("query", "", "run one query and exit (otherwise read stdin)")
	stats := flag.Bool("stats", true, "print execution statistics")
	flag.Parse()

	var cat *relation.Catalog
	switch *workload {
	case "tpch":
		cat = tpch.Generate(*scale, *seed)
	case "tpcds":
		cat = tpcds.Generate(*scale, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown db %q\n", *workload)
		os.Exit(2)
	}

	// Build the chosen engine once: the TAG encoding is query-independent,
	// so the graph and session are shared by every line of the shell.
	var ex *core.Session
	var ref *baseline.Engine
	switch *engine {
	case "tag":
		g, err := tag.Build(cat, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ex = core.NewSession(g, bsp.Options{})
	case "refdb":
		ref = baseline.New(cat)
	default:
		fmt.Fprintf(os.Stderr, "unknown engine %q\n", *engine)
		os.Exit(2)
	}

	runQuery := func(q string) {
		start := time.Now()
		var out *relation.Relation
		var err error
		var extra string
		if ex != nil {
			ex.ResetStats()
			out, err = ex.Query(q)
			if err == nil && *stats {
				extra = fmt.Sprintf("agg=%s acyclic=%v %s", ex.Info.Agg, ex.Info.Acyclic, ex.Stats())
			}
		} else {
			out, err = ref.Query(q)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Print(out.String())
		fmt.Printf("(%d rows in %v)\n", out.Len(), time.Since(start).Round(time.Microsecond))
		if extra != "" {
			fmt.Println(extra)
		}
	}

	if *query != "" {
		runQuery(*query)
		return
	}

	fmt.Printf("tagsql: %s at scale %g on the %s engine; one query per line, \\q to quit\n",
		*workload, *scale, *engine)
	fmt.Println(cat.String())
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("tagsql> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "\\q" || line == "exit" || line == "quit" {
			break
		}
		runQuery(line)
	}
}
