package sim

import (
	"container/heap"
	"time"
)

// FCFS is the virtual-clock queueing kernel behind the heavy-traffic sweep
// (loadgen.VirtualSweep) and the recovery study (adapt.RunScenario): a
// first-come-first-served queue of servers identical servers (the rounds a
// user keeps in flight). Request i arrives at arrivals[i], which must be
// nondecreasing, and starts at the later of its arrival and the earliest
// server free time; service(start) prices it and done(arrive, finish)
// receives it, in arrival order. Starts are nondecreasing too, so service
// may first advance its own state (lazy timeline writes, a placement
// policy) up to start.
func FCFS(servers int, arrivals []time.Duration, service func(start time.Duration) time.Duration, done func(arrive, finish time.Duration)) {
	free := make(freeTimes, servers)
	heap.Init(&free)
	for _, arrive := range arrivals {
		start := max(arrive, heap.Pop(&free).(time.Duration))
		finish := start + service(start)
		heap.Push(&free, finish)
		done(arrive, finish)
	}
}

// freeTimes is a min-heap of server free times.
type freeTimes []time.Duration

func (h freeTimes) Len() int           { return len(h) }
func (h freeTimes) Less(i, j int) bool { return h[i] < h[j] }
func (h freeTimes) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *freeTimes) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *freeTimes) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}
