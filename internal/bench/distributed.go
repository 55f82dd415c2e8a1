package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
)

// DistResult is the Figure 16 / Tables 16-17 distributed comparison for
// one workload.
type DistResult struct {
	Workload string
	Scale    float64
	Machines int
	Queries  []DistQuery

	TagTotal, ShuffleTotal       time.Duration
	TagTraffic, ShuffleTraffic   int64
	TagMessages, ShuffleMessages int64
}

// DistQuery is one query on the simulated cluster.
type DistQuery struct {
	ID                           string
	TagTime, ShuffleTime         time.Duration
	TagBytes, ShuffleBytes       int64
	TagMessages, ShuffleMessages int64
}

// DistEngines is the §8.6 pair over one catalog: TAG-join on a graph
// whose vertices are hash-partitioned over machines (bsp.PartitionOf,
// the partition function real dist topologies use, with every sealed
// cross-partition frame priced as network traffic), and the Spark SQL
// stand-in, whose shuffle and broadcast joins count exchanged bytes the
// same way.
type DistEngines struct {
	TAG     *core.Session
	Shuffle *baseline.Engine
}

// NewDistEngines builds the TAG encoding of cat and both engines.
func NewDistEngines(cat *relation.Catalog, machines int) (*DistEngines, error) {
	if machines < 1 {
		return nil, fmt.Errorf("bench: need at least 1 machine, have %d", machines)
	}
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}
	return &DistEngines{
		TAG:     core.NewSession(g, bsp.Options{Partitions: machines}),
		Shuffle: baseline.NewShuffle(cat, machines),
	}, nil
}

// Query runs one query on both engines, timing each and reading the
// network traffic it was priced at. Both answers are returned so a
// caller can check that the engines agree.
func (d *DistEngines) Query(id, query string) (q DistQuery, tagOut, shfOut *relation.Relation, err error) {
	q.ID = id
	before := d.TAG.Stats()
	start := time.Now()
	if tagOut, err = d.TAG.Query(query); err != nil {
		return q, nil, nil, fmt.Errorf("bench: tag %s: %w", id, err)
	}
	q.TagTime = time.Since(start)
	cost := d.TAG.Stats().Sub(before)
	q.TagBytes, q.TagMessages = cost.NetworkBytes, cost.NetworkMessages

	d.Shuffle.Stats = baseline.ExecStats{}
	start = time.Now()
	if shfOut, err = d.Shuffle.Query(query); err != nil {
		return q, nil, nil, fmt.Errorf("bench: shuffle %s: %w", id, err)
	}
	q.ShuffleTime = time.Since(start)
	st := d.Shuffle.Stats
	q.ShuffleBytes, q.ShuffleMessages = st.NetworkBytes(), st.ShuffledRows+st.BroadcastRows
	return q, tagOut, shfOut, nil
}

// RunDistributed executes a workload on the simulated cluster with both
// engines, recording runtimes and network traffic.
func RunDistributed(cfg Config, workload string, scale float64) (DistResult, error) {
	cfg = cfg.withDefaults()
	res := DistResult{Workload: workload, Scale: scale, Machines: cfg.Machines}
	d, err := NewDistEngines(generate(workload, scale, cfg.Seed), cfg.Machines)
	if err != nil {
		return res, err
	}
	for _, wq := range WorkloadQueries(workload) {
		q, _, _, err := d.Query(wq.ID, wq.SQL)
		if err != nil {
			return res, err
		}
		res.Queries = append(res.Queries, q)
		res.TagTotal += q.TagTime
		res.ShuffleTotal += q.ShuffleTime
		res.TagTraffic += q.TagBytes
		res.ShuffleTraffic += q.ShuffleBytes
		res.TagMessages += q.TagMessages
		res.ShuffleMessages += q.ShuffleMessages
	}
	return res, nil
}

// PrintDistributed renders Figure 16 and the Tables 16/17 detail.
func PrintDistributed(w io.Writer, res DistResult) {
	fmt.Fprintf(w, "\nFigure 16 — distributed %s on %d machines, scale %.2g\n",
		res.Workload, res.Machines, res.Scale)
	fmt.Fprintf(w, "%-10s %14s %16s\n", "engine", "agg_time_ms", "net_traffic_kb")
	fmt.Fprintf(w, "%-10s %14.3f %16d\n", "tag", ms(res.TagTotal), res.TagTraffic/1024)
	fmt.Fprintf(w, "%-10s %14.3f %16d\n", "shuffle", ms(res.ShuffleTotal), res.ShuffleTraffic/1024)
	if res.TagTraffic > 0 {
		fmt.Fprintf(w, "traffic ratio shuffle/tag = %.2fx\n",
			float64(res.ShuffleTraffic)/float64(res.TagTraffic))
	}

	fmt.Fprintf(w, "\nTables 16/17 — per-query distributed runtimes (ms) and traffic (kb)\n")
	fmt.Fprintf(w, "%-6s %10s %10s %12s %12s\n", "query", "tag_ms", "shuffle_ms", "tag_kb", "shuffle_kb")
	for _, q := range res.Queries {
		fmt.Fprintf(w, "%-6s %10.3f %10.3f %12d %12d\n",
			q.ID, ms(q.TagTime), ms(q.ShuffleTime), q.TagBytes/1024, q.ShuffleBytes/1024)
	}
}
