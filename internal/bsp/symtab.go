// Package bsp implements a vertex-centric bulk-synchronous-parallel graph
// engine in the style of Pregel (Malewicz et al. 2010), the computational
// model reviewed in §2 of the TAG-join paper. It is the substrate the paper
// obtains from TigerGraph: vertices run a user program in supersteps,
// communicate by messages along labeled edges, are activated by message
// receipt, and contribute global results through an ordered emit stream.
//
// The engine exploits thread parallelism with a worker pool and per-worker
// outboxes, and accounts for the paper's cost measures: total messages,
// message bytes, and per-vertex computation operations. Under
// Options.Partitions > 1, PartitionOf assigns vertices to machines and
// messages that cross partitions are priced as network traffic, which
// drives the distributed-cluster experiments.
package bsp

import "sync"

// LabelID is an interned vertex or edge label.
type LabelID int32

// NoLabel is the zero label, never returned by Intern.
const NoLabel LabelID = 0

// SymbolTable interns label strings to dense ids. It is safe for
// concurrent readers once construction is complete; Intern itself is
// guarded for convenience during graph building.
type SymbolTable struct {
	mu    sync.Mutex
	ids   map[string]LabelID
	names []string
}

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{
		ids:   make(map[string]LabelID),
		names: []string{""}, // reserve 0 == NoLabel
	}
}

// Intern returns the id for name, assigning a fresh one if needed.
func (s *SymbolTable) Intern(name string) LabelID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := LabelID(len(s.names))
	s.names = append(s.names, name)
	s.ids[name] = id
	return id
}

// Lookup returns the id for name, or NoLabel if never interned.
func (s *SymbolTable) Lookup(name string) LabelID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ids[name]
}

// Name returns the string for an id ("" for NoLabel or unknown ids).
func (s *SymbolTable) Name(id LabelID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id <= 0 || int(id) >= len(s.names) {
		return ""
	}
	return s.names[id]
}

// Len returns the number of interned labels.
func (s *SymbolTable) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.names) - 1
}
