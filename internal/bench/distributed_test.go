package bench

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/tpch"
)

func TestClusterTrafficAccounting(t *testing.T) {
	d, err := NewDistEngines(tpch.Generate(0.3, 9), 6)
	if err != nil {
		t.Fatal(err)
	}
	q := tpch.ByID("q3")
	res, tagOut, shfOut, err := d.Query(q.ID, q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagBytes == 0 {
		t.Error("TAG run on 6 machines should incur network traffic")
	}
	if res.ShuffleBytes == 0 {
		t.Error("shuffle run should incur network traffic")
	}
	if tagOut.Len() != shfOut.Len() {
		t.Errorf("row counts differ: %d vs %d", tagOut.Len(), shfOut.Len())
	}
}

func TestSingleMachineNoTraffic(t *testing.T) {
	d, err := NewDistEngines(tpch.Generate(0.3, 9), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, err := d.Query("q6", tpch.ByID("q6").SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.TagBytes != 0 {
		t.Errorf("single machine should have zero network traffic, got %d", res.TagBytes)
	}
}

func TestBadMachineCount(t *testing.T) {
	if _, err := NewDistEngines(tpch.Generate(0.2, 1), 0); err == nil {
		t.Error("0 machines should error")
	}
}

func TestWorkloadOnCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster workload in -short mode")
	}
	d, err := NewDistEngines(tpch.Generate(0.3, 9), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"q1", "q4", "q5", "q10", "q14"} {
		q := tpch.ByID(id)
		_, tagOut, shfOut, err := d.Query(q.ID, q.SQL)
		if err != nil {
			t.Errorf("%s: %v", id, err)
		} else if !relation.EqualMultiset(tagOut, shfOut) {
			t.Errorf("%s: engines disagree (%d vs %d rows)", id, tagOut.Len(), shfOut.Len())
		}
	}
}
