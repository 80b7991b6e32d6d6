// rangescan: time-windowed analytics over a layered map using the weakly
// consistent ordered traversal (Handle.Ascend).
//
// Events are keyed by (timestamp << 16 | sequence), so a range scan over a
// key interval is a time-window query.
//
//	go run ./examples/rangescan
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"layeredsg"
)

// Event is a measurement sample.
type Event struct {
	Sensor string
	Value  float64
}

func key(tsMillis int64, seq int64) int64 { return tsMillis<<16 | (seq & 0xFFFF) }

func main() {
	topo, err := layeredsg.NewTopology(2, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	const writers = 4
	machine, err := layeredsg.Pin(topo, writers)
	if err != nil {
		log.Fatal(err)
	}
	m, err := layeredsg.New[int64, Event](layeredsg.Config{
		Machine: machine,
		Kind:    layeredsg.LayeredSSG, // sparse: cheap inserts, small local maps
	})
	if err != nil {
		log.Fatal(err)
	}

	// Writers ingest 10k events each over a 60-second simulated window.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.Handle(w)
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < 10000; i++ {
				ts := rng.Int63n(60_000)
				h.Insert(key(ts, int64(w*10000+i)), Event{
					Sensor: fmt.Sprintf("sensor-%d", w),
					Value:  rng.Float64() * 100,
				})
			}
		}(w)
	}
	wg.Wait()

	fmt.Printf("ingested %d events\n", m.Len())

	// Window query: average value in seconds 30–31, via the ordered scan.
	h := m.Handle(0)
	var sum float64
	var count int
	h.Ascend(key(30_000, 0), func(k int64, e Event) bool {
		if k >= key(31_000, 0) {
			return false
		}
		sum += e.Value
		count++
		return true
	})
	fmt.Printf("window [30s,31s): %d events, mean value %.2f\n", count, sum/float64(max(count, 1)))

	// Count per 10-second bucket.
	for bucket := int64(0); bucket < 60_000; bucket += 10_000 {
		n := h.Count(key(bucket, 0), key(bucket+10_000, 0)-1)
		fmt.Printf("bucket %2ds–%2ds: %5d events\n", bucket/1000, (bucket+10_000)/1000, n)
	}
}
