// Elasticity demonstrates the disaggregated architecture live: a
// virtual warehouse of stateless workers over shared storage, scaled
// up mid-workload. Vector search serving lets the cold new worker
// contribute immediately — its ANN scans proxy to the previous owner
// over a real TCP RPC until preload warms its cache — and a worker
// crash is absorbed by query-level retry.
//
//	go run ./examples/elasticity
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/cluster"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"

	// Register the pluggable index types (the core engine does this
	// for SQL users; direct lsm users import what they need).
	_ "blendhouse/internal/index/hnsw"
)

const dim = 24

func main() {
	// Shared "remote" storage with an object-store-like cost model.
	remote := storage.NewRemoteStore(storage.NewMemStore(), storage.DefaultRemoteConfig())

	// A table with per-segment HNSW indexes, ingested in one shot.
	tab, err := lsm.Create(remote, lsm.Options{
		Name: "vectors",
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "embedding", Type: storage.VectorType, Dim: dim},
		}},
		IndexColumn: "embedding", IndexType: index.HNSW,
		IndexParams: index.BuildParams{M: 12, EfConstruction: 100, Seed: 1},
		SegmentRows: 500, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds := dataset.Generate(dataset.Spec{Name: "v", N: 4000, Dim: dim, Queries: 10, Seed: 2})
	batch := storage.NewRowBatch(tab.Schema())
	for i := 0; i < ds.Vectors.Rows(); i++ {
		batch.Col("id").Ints = append(batch.Col("id").Ints, int64(i))
	}
	batch.Col("embedding").Vecs = append(batch.Col("embedding").Vecs, ds.Vectors.Data...)
	// Rows go in through the write-ahead log; closing it flushes them.
	if err := tab.EnableWAL(lsm.WALConfig{}); err != nil {
		log.Fatal(err)
	}
	if err := errors.Join(tab.Insert(context.Background(), batch), tab.CloseWAL()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table: %d rows in %d segments on shared storage\n", tab.Rows(), tab.SegmentCount())

	// A read VW whose workers serve scans to each other over loopback
	// net/rpc.
	vw := cluster.NewVW(cluster.VWConfig{Name: "read-vw"}, remote)
	defer vw.Close()
	vw.RegisterTable(tab)
	for _, id := range []string{"w0", "w1"} {
		if _, err := vw.AddWorker(id); err != nil {
			log.Fatal(err)
		}
	}
	// Cache-aware preload: each worker pulls exactly the segments the
	// consistent-hash scheduler will route to it.
	if errs := vw.Preload(tab); len(errs) > 0 {
		log.Fatal(errs[0])
	}
	fmt.Println("VW started with 2 preloaded workers")

	search := func(tag string) {
		cands, err := vw.Search(context.Background(), tab, ds.Queries.Row(0), 5,
			cluster.SearchOptions{Params: index.SearchParams{Ef: 64}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] top hit: segment=%s offset=%d dist=%.4f\n",
			tag, cands[0].Segment, cands[0].Offset, cands[0].Dist)
	}
	search("steady state")

	// Scale up WITHOUT preloading: w2 joins cold. Its segments are
	// proxied to their previous owners — no brute-force fallback, no
	// waiting for index loads.
	if _, err := vw.AddWorker("w2"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("scaled up: w2 joined with a cold cache")
	search("immediately after scale-up")

	served := vw.Worker("w0").ServedSearches.Load() + vw.Worker("w1").ServedSearches.Load()
	var brute int64
	for _, id := range vw.Workers() {
		brute += vw.Worker(id).BruteSearches.Load()
	}
	fmt.Printf("vector search serving handled %d proxied scans; brute-force fallbacks: %d\n", served, brute)

	// Now preload w2 and show it serving locally.
	vw.Preload(tab)
	search("after w2 preload")

	// Kill a worker mid-flight: stateless workers + query-level retry
	// keep the VW answering.
	vw.Worker("w1").Fail()
	fmt.Println("w1 crashed")
	search("with w1 down")
	vw.Worker("w1").Recover()
	search("after w1 recovery")
}
