package topk_test

import (
	"reflect"
	"sync"
	"testing"

	"topk"
	"topk/internal/dataset"
)

// concurrentGoroutines is deliberately higher than any realistic GOMAXPROCS
// in CI so the scheduler interleaves queries on one shared index; run with
// -race to verify the pooled scratch state really is contention-free.
const concurrentGoroutines = 16

func concurrentCollection(t *testing.T) ([]topk.Ranking, []topk.Ranking) {
	t.Helper()
	cfg := dataset.NYTLike(800, 10)
	rs, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	qs, err := dataset.Workload(rs, cfg, 24, 0.8, cfg.Seed+1000)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return rs, qs
}

// TestConcurrentSearch hammers one shared index of every kind from 16
// goroutines and checks that every concurrent answer is identical to the
// sequential answer for the same query.
func TestConcurrentSearch(t *testing.T) {
	rs, qs := concurrentCollection(t)
	kinds := map[string]func() (topk.Index, error){
		"Coarse": func() (topk.Index, error) {
			return topk.NewCoarseIndex(rs, topk.WithThetaC(0.3))
		},
		"Coarse+Drop": func() (topk.Index, error) {
			return topk.NewCoarseIndex(rs, topk.WithThetaC(0.06), topk.WithListDropping())
		},
		// The served inverted index (F&V+Drop), and the static one under
		// the paper's F&V and ListMerge.
		"InvertedIndex/Drop": func() (topk.Index, error) {
			return topk.NewInvertedIndex(rs)
		},
		"InvertedIndex/FV": func() (topk.Index, error) {
			return topk.NewStaticInvertedIndex(rs, topk.FilterValidate)
		},
		"InvertedIndex/Merge": func() (topk.Index, error) {
			return topk.NewStaticInvertedIndex(rs, topk.ListMerge)
		},
		"BlockedIndex": func() (topk.Index, error) {
			return topk.NewBlockedIndex(rs)
		},
		"BlockedIndex/Drop": func() (topk.Index, error) {
			return topk.NewBlockedIndex(rs, topk.WithBlockedDrop())
		},
		"MetricTree/BK": func() (topk.Index, error) {
			return topk.NewMetricTree(rs, topk.BKTree)
		},
	}
	const theta = 0.2
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			idx, err := build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			want := make([][]topk.Result, len(qs))
			for i, q := range qs {
				if want[i], err = idx.Search(q, theta); err != nil {
					t.Fatalf("sequential search: %v", err)
				}
			}
			var wg sync.WaitGroup
			errc := make(chan error, concurrentGoroutines)
			for g := 0; g < concurrentGoroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for rep := 0; rep < 3; rep++ {
						for i, q := range qs {
							got, err := idx.Search(q, theta)
							if err != nil {
								errc <- err
								return
							}
							if !reflect.DeepEqual(got, want[i]) && !(len(got) == 0 && len(want[i]) == 0) {
								t.Errorf("goroutine %d query %d: concurrent answer diverges", g, i)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatalf("concurrent search: %v", err)
			}
			if name != "InvertedIndex/Merge" && idx.DistanceCalls() == 0 {
				t.Fatal("no distance calls recorded")
			}
		})
	}
}

// TestConcurrentSearchAndInsert interleaves writers (Insert) with readers
// (Search) on the mutable index kinds. Results are only checked for
// well-formedness — the collection is growing underneath the readers — but
// under -race this verifies the RWMutex/pool handoff is sound.
func TestConcurrentSearchAndInsert(t *testing.T) {
	rs, qs := concurrentCollection(t)
	fresh, err := dataset.Generate(dataset.NYTLike(200, 10))
	if err != nil {
		t.Fatal(err)
	}
	type insertable interface {
		topk.Index
		Insert(topk.Ranking) (topk.ID, error)
	}
	// Full slice expressions: Insert appends to the collection it was built
	// over, and must not be allowed to grow into (and overwrite) the backing
	// array shared with rs and the workload queries.
	kinds := map[string]func() (insertable, error){
		"Hybrid": func() (insertable, error) {
			return topk.NewHybridIndex(rs[:600:600])
		},
		"InvertedIndex": func() (insertable, error) {
			return topk.NewInvertedIndex(rs[:600:600])
		},
	}
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			idx, err := build()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, q := range qs {
						res, err := idx.Search(q, 0.2)
						if err != nil {
							t.Errorf("search: %v", err)
							return
						}
						for j := 1; j < len(res); j++ {
							if res[j-1].ID >= res[j].ID {
								t.Error("results not strictly ID-sorted")
								return
							}
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, r := range fresh {
					if _, err := idx.Insert(r.Clone()); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}()
			wg.Wait()
			if got := idx.Len(); got != 600+len(fresh) {
				t.Fatalf("Len = %d, want %d", got, 600+len(fresh))
			}
		})
	}
}
