package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Add("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // refresh a: b is now least recently used
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c (just added) was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheRefreshExisting(t *testing.T) {
	c := NewCache(2)
	c.Add("a", 1)
	c.Add("a", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Add, want 1", c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("Get(a) = %v, want refreshed value 2", v)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Add("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache Len = %d, want 0", c.Len())
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]bool, waiters)
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err, shared := g.Do(context.Background(), "k", func() (any, error) {
			calls.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || v.(int) != 42 || shared {
			t.Errorf("leader got %v, %v, shared=%v", v, err, shared)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do(context.Background(), "k", func() (any, error) {
				calls.Add(1)
				return -1, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("waiter %d got %v, %v", i, v, err)
			}
			results[i] = shared
		}(i)
	}
	// Give the waiters a moment to attach to the in-flight call.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	<-leaderDone

	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, shared := range results {
		if !shared {
			t.Errorf("waiter %d not marked shared", i)
		}
	}
}

func TestFlightGroupWaiterDeadline(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), "k", func() (any, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err, shared := g.Do(ctx, "k", func() (any, error) { return -1, nil })
	close(release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !shared {
		t.Fatal("expired waiter should still report shared")
	}
}

func TestFlightGroupSequentialCallsRunSeparately(t *testing.T) {
	var g flightGroup
	var calls int
	for i := 0; i < 3; i++ {
		_, _, shared := g.Do(context.Background(), "k", func() (any, error) {
			calls++
			return nil, nil
		})
		if shared {
			t.Fatalf("sequential call %d marked shared", i)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3 (no concurrency, no coalescing)", calls)
	}
}
