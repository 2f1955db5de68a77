package sim

import (
	"reflect"
	"testing"
	"time"
)

// fcfs runs FCFS with a fixed service time and returns each request's
// (start, finish).
func fcfs(servers int, arrivals []time.Duration, svc time.Duration) (starts, finishes []time.Duration) {
	FCFS(servers, arrivals, func(start time.Duration) time.Duration {
		starts = append(starts, start)
		return svc
	}, func(_, finish time.Duration) {
		finishes = append(finishes, finish)
	})
	return starts, finishes
}

func TestFCFSQueuesBehindBusyServers(t *testing.T) {
	// Two servers, three simultaneous arrivals, service 10: the third waits
	// for the first free server.
	starts, finishes := fcfs(2, []time.Duration{0, 0, 0}, 10)
	if want := []time.Duration{0, 0, 10}; !reflect.DeepEqual(starts, want) {
		t.Errorf("starts = %v, want %v", starts, want)
	}
	if want := []time.Duration{10, 10, 20}; !reflect.DeepEqual(finishes, want) {
		t.Errorf("finishes = %v, want %v", finishes, want)
	}
}

func TestFCFSIdleServerStartsAtArrival(t *testing.T) {
	// The second request arrives after the only server is free again: it
	// starts at its own arrival, not at the server's free time.
	starts, finishes := fcfs(1, []time.Duration{0, 25}, 10)
	if want := []time.Duration{0, 25}; !reflect.DeepEqual(starts, want) {
		t.Errorf("starts = %v, want %v", starts, want)
	}
	if want := []time.Duration{10, 35}; !reflect.DeepEqual(finishes, want) {
		t.Errorf("finishes = %v, want %v", finishes, want)
	}
}

func TestFCFSReportsArrivalsInOrder(t *testing.T) {
	arrivals := []time.Duration{0, 1, 2, 30}
	var got []time.Duration
	FCFS(3, arrivals, func(time.Duration) time.Duration { return 5 }, func(arrive, _ time.Duration) {
		got = append(got, arrive)
	})
	if !reflect.DeepEqual(got, arrivals) {
		t.Fatalf("done saw arrivals %v, want %v", got, arrivals)
	}
}
