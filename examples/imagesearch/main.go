// Imagesearch reproduces the paper's motivating production workload
// (Example 1 / Table VII): an image-search table partitioned by a
// scalar column AND clustered into semantic buckets, queried with
// multi-predicate filtered top-k. It prints how many segments each
// pruning strategy eliminates for a concrete query.
//
//	go run ./examples/imagesearch
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/cache"
	"blendhouse/internal/core"
	"blendhouse/internal/storage"
)

const dim = 32

func main() {
	ccCfg := cache.DefaultColumnCacheConfig()
	engine, err := core.New(core.Config{
		Store:            storage.NewMemStore(),
		ColumnCache:      &ccCfg,
		SemanticFraction: 0.4, // semantic pruning: search the 40% nearest buckets first
		MinSegments:      1,
		SegmentRows:      500,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close() // drain the write-ahead log into segments

	// The paper's Example 1 shape: scalar partitioning (by label) plus
	// semantic similarity-based partitioning (CLUSTER BY ... BUCKETS).
	mustExec(engine, fmt.Sprintf(`
		CREATE TABLE images (
			id UInt64,
			label String,
			published_time DateTime,
			embedding Array(Float32),
			INDEX ann_idx embedding TYPE HNSW('DIM=%d','M=16')
		)
		ORDER BY published_time
		PARTITION BY label
		CLUSTER BY embedding INTO 8 BUCKETS`, dim))

	// Synthetic "production" images: clustered embeddings with
	// categories and timestamps.
	ds := dataset.Generate(dataset.Spec{
		Name: "images", N: 4000, Dim: dim, Queries: 3, Seed: 7, WithProdCols: true,
	})
	var sb strings.Builder
	sb.WriteString("INSERT INTO images VALUES ")
	for i := 0; i < ds.Vectors.Rows(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, '%s', %d, %s)",
			i, ds.Category[i], ds.TSMillis[i], vecLit(ds.Vectors.Row(i)))
	}
	mustExec(engine, sb.String())

	// Cut the logged rows into segments now, not on the flusher's timer.
	tab := engine.Table("images")
	if err := tab.FlushWAL(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d rows into %d segments (scalar partitions x semantic buckets)\n\n",
		tab.Rows(), tab.SegmentCount())

	// The production query: top-k most similar images among one
	// category in a time range. Both partitioning axes prune segments
	// before any worker touches an index.
	q := ds.Queries.Row(0)
	tsLo := ds.TSMillis[len(ds.TSMillis)/4]
	sqlText := fmt.Sprintf(`
		SELECT id, label, published_time, dist FROM images
		WHERE label = 'animal' AND published_time >= %d
		ORDER BY L2Distance(embedding, %s) AS dist
		LIMIT 10 SETTINGS ef_search=96`, tsLo, vecLit(q))
	res, err := engine.Exec(context.Background(), sqlText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- filtered image search results --")
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		fmt.Printf("%v\t%v\t%v\t%.4f\n", row[0], row[1], row[2], row[3])
	}

	// Show the pruning effect directly: how many of the table's
	// segments carry the 'animal' partition at all.
	animal := 0
	for _, m := range tab.Segments() {
		if m.Partition == "animal" {
			animal++
		}
	}
	fmt.Printf("\npartition pruning: %d of %d segments belong to label='animal'\n",
		animal, tab.SegmentCount())
	fmt.Println("semantic pruning additionally keeps only the buckets nearest the query vector (SemanticFraction=0.4)")
}

func mustExec(e *core.Engine, sqlText string) {
	if _, err := e.Exec(context.Background(), sqlText); err != nil {
		log.Fatalf("%v\nstatement: %.80s", err, sqlText)
	}
}

func vecLit(v []float32) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%.4f", f)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
