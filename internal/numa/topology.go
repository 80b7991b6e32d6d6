// Package numa simulates the NUMA characteristics the paper's evaluation
// machine exposes through numactl/libnuma and /proc/cpuinfo.
//
// The paper runs on 2× Intel Xeon Platinum 8275CL (2 NUMA nodes, 24 cores per
// socket, 2 hardware threads per core, 96 hardware threads total) with
// intra-node distance 10 and inter-node distance 21, pins threads to CPUs
// filling one socket before the next, and allocates memory first-touch so
// that a shared node "belongs" to the NUMA node of the thread that allocated
// it.
//
// Go offers neither NUMA-aware allocation nor robust thread pinning, so this
// package models the parts of the machine the paper's *metrics* depend on:
//
//   - a topology (sockets → cores → hardware threads) with a distance matrix
//     shaped like `numactl --hardware` output;
//   - a deterministic pin order (socket-fill, cores before SMT siblings);
//   - placements mapping logical worker threads to CPUs and NUMA nodes.
//
// Every shared node in the data structures records the Placement of its
// allocating thread (first-touch ownership); the instrumentation in
// internal/stats classifies each access as local or remote by comparing the
// accessor's placement with the owner's. This reproduces exactly what the
// paper measures (counts of local/remote reads and CAS operations), which is
// a function of the placement map alone, not of real memory latencies.
package numa

import (
	"fmt"
	"strings"
)

// Topology describes a simulated shared-memory machine.
type Topology struct {
	sockets        int
	coresPerSocket int
	threadsPerCore int
	distance       [][]int
}

// PaperMachine returns the evaluation machine from the paper: 2 sockets,
// 24 cores per socket, 2 hardware threads per core (96 hardware threads),
// distances 10 (intra-node) and 21 (inter-node).
func PaperMachine() *Topology {
	t, err := New(2, 24, 2)
	if err != nil {
		// Static arguments; cannot fail.
		panic(err)
	}
	return t
}

// New builds a topology with one NUMA node per socket and the default
// distance matrix (10 on the diagonal, 21 off-diagonal, as reported by
// numactl on the paper's machine).
func New(sockets, coresPerSocket, threadsPerCore int) (*Topology, error) {
	if sockets <= 0 || coresPerSocket <= 0 || threadsPerCore <= 0 {
		return nil, fmt.Errorf("numa: invalid topology %d×%d×%d", sockets, coresPerSocket, threadsPerCore)
	}
	dist := make([][]int, sockets)
	for i := range dist {
		dist[i] = make([]int, sockets)
		for j := range dist[i] {
			if i == j {
				dist[i][j] = 10
			} else {
				dist[i][j] = 21
			}
		}
	}
	return &Topology{
		sockets:        sockets,
		coresPerSocket: coresPerSocket,
		threadsPerCore: threadsPerCore,
		distance:       dist,
	}, nil
}

// NewWithDistances builds a topology with an explicit NUMA distance matrix
// (one node per socket). The matrix must be square with dimension equal to
// sockets, symmetric, and have the minimum value on the diagonal. Useful for
// modelling >2-node machines where the paper's qualitative claim — the larger
// the inter-node distance, the bigger the reduction in remote accesses —
// becomes visible at several distances.
func NewWithDistances(sockets, coresPerSocket, threadsPerCore int, distance [][]int) (*Topology, error) {
	t, err := New(sockets, coresPerSocket, threadsPerCore)
	if err != nil {
		return nil, err
	}
	if len(distance) != sockets {
		return nil, fmt.Errorf("numa: distance matrix has %d rows, want %d", len(distance), sockets)
	}
	dist := make([][]int, sockets)
	for i := range distance {
		if len(distance[i]) != sockets {
			return nil, fmt.Errorf("numa: distance row %d has %d entries, want %d", i, len(distance[i]), sockets)
		}
		dist[i] = make([]int, sockets)
		copy(dist[i], distance[i])
	}
	for i := 0; i < sockets; i++ {
		for j := 0; j < sockets; j++ {
			if dist[i][j] != dist[j][i] {
				return nil, fmt.Errorf("numa: distance matrix not symmetric at (%d,%d)", i, j)
			}
			if i != j && dist[i][j] <= dist[i][i] {
				return nil, fmt.Errorf("numa: off-diagonal distance (%d,%d)=%d not greater than local %d",
					i, j, dist[i][j], dist[i][i])
			}
		}
	}
	t.distance = dist
	return t, nil
}

// Sockets returns the number of sockets (== NUMA nodes in this model).
func (t *Topology) Sockets() int { return t.sockets }

// Nodes returns the number of NUMA nodes.
func (t *Topology) Nodes() int { return t.sockets }

// CoresPerSocket returns the core count per socket.
func (t *Topology) CoresPerSocket() int { return t.coresPerSocket }

// ThreadsPerCore returns the SMT width.
func (t *Topology) ThreadsPerCore() int { return t.threadsPerCore }

// HardwareThreads returns the total number of hardware threads.
func (t *Topology) HardwareThreads() int {
	return t.sockets * t.coresPerSocket * t.threadsPerCore
}

// Distance returns the NUMA distance between two nodes, in the units
// numactl --hardware reports (10 = local).
func (t *Topology) Distance(nodeA, nodeB int) int {
	return t.distance[nodeA][nodeB]
}

// CPU identifies one hardware thread by its position in the machine.
type CPU struct {
	// ID is the hardware thread index in pin order (socket-fill).
	ID int
	// Socket is the socket (== NUMA node) hosting the thread.
	Socket int
	// Core is the core index within the socket.
	Core int
	// SMT is the hardware-thread index within the core.
	SMT int
}

// cpuAt maps a pin-order index to a CPU. Pin order fills a socket before
// moving to the next (the paper: "we fill a socket before adding threads to
// another socket"), and within a socket fills all first hardware threads of
// each core before SMT siblings, as Linux enumerates cores on the paper's
// machine.
func (t *Topology) cpuAt(idx int) CPU {
	perSocket := t.coresPerSocket * t.threadsPerCore
	socket := idx / perSocket
	within := idx % perSocket
	smt := within / t.coresPerSocket
	core := within % t.coresPerSocket
	return CPU{ID: idx, Socket: socket, Core: core, SMT: smt}
}

// Placement binds a logical worker thread to a simulated CPU.
type Placement struct {
	// Thread is the logical worker thread ID (0-based).
	Thread int
	// CPU is the hardware thread the worker is pinned to.
	CPU CPU
}

// Node returns the NUMA node of the placement.
func (p Placement) Node() int { return p.CPU.Socket }

// Machine is a topology together with a set of pinned worker threads. It is
// the object the data structures consult for ownership classification and the
// membership-vector generator consults for physical distance.
type Machine struct {
	topo       *Topology
	placements []Placement
}

// Pin creates a Machine with `threads` logical workers pinned in pin order.
// More workers than hardware threads wrap around (oversubscription), matching
// what an OS scheduler would do with round-robin affinity.
func Pin(topo *Topology, threads int) (*Machine, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("numa: thread count %d must be positive", threads)
	}
	hw := topo.HardwareThreads()
	pl := make([]Placement, threads)
	for i := 0; i < threads; i++ {
		pl[i] = Placement{Thread: i, CPU: topo.cpuAt(i % hw)}
	}
	return &Machine{topo: topo, placements: pl}, nil
}

// Topology returns the underlying topology.
func (m *Machine) Topology() *Topology { return m.topo }

// Threads returns the number of pinned logical workers.
func (m *Machine) Threads() int { return len(m.placements) }

// Placement returns the placement of a logical worker thread.
func (m *Machine) Placement(thread int) Placement { return m.placements[thread] }

// NodeOf returns the NUMA node a logical worker thread runs on.
func (m *Machine) NodeOf(thread int) int { return m.placements[thread].Node() }

// ThreadDistance returns the physical distance between two logical worker
// threads, combining NUMA distance with core and SMT collocation exactly as
// the paper's membership-vector generator assesses it: SMT siblings are
// closest, same-socket threads next, and cross-socket threads are separated
// by the NUMA distance (scaled to dominate the intra-socket terms).
func (m *Machine) ThreadDistance(a, b int) int {
	ca, cb := m.placements[a].CPU, m.placements[b].CPU
	if ca.Socket != cb.Socket {
		return 1000 * m.topo.Distance(ca.Socket, cb.Socket)
	}
	if ca.Core != cb.Core {
		return 100
	}
	if ca.SMT != cb.SMT {
		return 10
	}
	return 0
}

// String renders the machine like a compact `numactl --hardware` report.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "available: %d nodes (0-%d)\n", m.topo.Nodes(), m.topo.Nodes()-1)
	for n := 0; n < m.topo.Nodes(); n++ {
		var cpus []string
		for _, p := range m.placements {
			if p.Node() == n {
				cpus = append(cpus, fmt.Sprintf("%d", p.Thread))
			}
		}
		fmt.Fprintf(&b, "node %d threads: %s\n", n, strings.Join(cpus, " "))
	}
	b.WriteString("node distances:\n")
	for i := 0; i < m.topo.Nodes(); i++ {
		for j := 0; j < m.topo.Nodes(); j++ {
			fmt.Fprintf(&b, "%4d", m.topo.Distance(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
