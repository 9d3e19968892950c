package main

import (
	"sync"
	"time"
)

// openLoop issues count operations at a fixed rate regardless of how fast
// earlier ones complete: operation i is due at start + i/rate. fire runs on
// its own goroutine with the operation's index and due time, so a stalled
// operation delays no later one; its latency is measured from due, which
// charges the wait a stall imposes on later operations to them. openLoop
// returns once every operation has completed, with how late the generator
// dispatched each one (seconds after its due time).
func openLoop(start time.Time, rate float64, count int, fire func(i int, due time.Time)) []float64 {
	late := make([]float64, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due).Seconds()
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			fire(i, due)
		}(i, due)
	}
	wg.Wait()
	return late
}
