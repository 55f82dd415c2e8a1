// Package cluster runs the distributed experiments of §8.6 over the
// loopback transport: the same TAG-join programs run over a TAG graph
// whose vertices are hash-partitioned across N machines, with every
// sealed cross-partition frame priced as network traffic; the Spark SQL
// stand-in executes the same queries with shuffle/broadcast joins whose
// exchanged bytes are counted the same way. This regenerates Figure 16's
// runtime and network-traffic comparison and Tables 16-17.
//
// "Loopback" is the single-process end of the bsp.Transport seam — the
// frames are built, encoded and priced exactly as internal/dist puts
// them on real sockets (the dist tests assert the byte counts are
// equal), but delivery stays in memory. The partition function here,
// int(v) % machines, is the same one dist topologies use, so a
// machine count means the same thing on both paths.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tag"
)

// Result is one query execution on the simulated cluster.
type Result struct {
	Engine          string
	QueryID         string
	Elapsed         time.Duration
	Rows            int
	NetworkBytes    int64
	NetworkMessages int64
}

// Cluster is a fixed catalog partitioned over Machines workers.
type Cluster struct {
	Machines int
	Cat      *relation.Catalog
	TAG      *tag.Graph
	ex       *core.Session
	shf      *baseline.Engine
}

// New builds the TAG encoding and prepares both engines.
func New(cat *relation.Catalog, machines int) (*Cluster, error) {
	if machines < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 machine")
	}
	g, err := tag.Build(cat, nil)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Machines: machines, Cat: cat, TAG: g}
	c.ex = core.NewSession(g, bsp.Options{
		Partitions: machines,
		// TigerGraph-style automatic partitioning: hash by vertex id.
		PartitionOf: func(v bsp.VertexID) int { return int(v) % machines },
	})
	c.shf = baseline.NewShuffle(cat, machines)
	return c, nil
}

// RunTAG executes a query with the TAG-join executor, attributing
// cross-partition messages to the network.
func (c *Cluster) RunTAG(id, query string) (Result, error) {
	c.ex.ResetStats()
	start := time.Now()
	out, err := c.ex.Query(query)
	if err != nil {
		return Result{}, fmt.Errorf("cluster: tag %s: %w", id, err)
	}
	st := c.ex.Stats()
	return Result{
		Engine: "tag", QueryID: id, Elapsed: time.Since(start),
		Rows: out.Len(), NetworkBytes: st.NetworkBytes, NetworkMessages: st.NetworkMessages,
	}, nil
}

// RunShuffle executes a query with the Spark-SQL-like shuffle engine.
func (c *Cluster) RunShuffle(id, query string) (Result, error) {
	c.shf.Stats = baseline.ExecStats{}
	start := time.Now()
	out, err := c.shf.Query(query)
	if err != nil {
		return Result{}, fmt.Errorf("cluster: shuffle %s: %w", id, err)
	}
	return Result{
		Engine: "shuffle", QueryID: id, Elapsed: time.Since(start),
		Rows: out.Len(), NetworkBytes: c.shf.Stats.NetworkBytes(),
		NetworkMessages: c.shf.Stats.ShuffledRows + c.shf.Stats.BroadcastRows,
	}, nil
}

// Compare runs a query on both engines and checks that they agree.
func (c *Cluster) Compare(id, query string) (tagRes, shfRes Result, err error) {
	tagRes, err = c.RunTAG(id, query)
	if err != nil {
		return
	}
	shfRes, err = c.RunShuffle(id, query)
	if err != nil {
		return
	}
	tagOut, _ := c.ex.Query(query)
	shfOut, _ := c.shf.Query(query)
	if !relation.EqualMultiset(tagOut, shfOut) {
		err = fmt.Errorf("cluster: %s: engines disagree (%d vs %d rows)", id, tagOut.Len(), shfOut.Len())
	}
	return
}
