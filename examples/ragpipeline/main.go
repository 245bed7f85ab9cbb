// Ragpipeline demonstrates BlendHouse as the retrieval layer of a
// RAG application: document chunks with metadata, retrieval under a
// freshness filter (the post-filter iterative search path), distance
// range search for "good enough" matches, and realtime updates when a
// document is re-ingested (multi-version + delete bitmap).
//
//	go run ./examples/ragpipeline
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"blendhouse/internal/bench/dataset"
	"blendhouse/internal/core"
	"blendhouse/internal/storage"
)

const dim = 16

func main() {
	engine, err := core.New(core.Config{Store: storage.NewMemStore(), SegmentRows: 400})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close() // drain the write-ahead log into segments
	mustExec(engine, fmt.Sprintf(`
		CREATE TABLE chunks (
			chunk_id UInt64,
			source String,
			ingested_at DateTime,
			embedding Array(Float32),
			INDEX ann embedding TYPE HNSW('DIM=%d')
		)`, dim))

	// Ingest chunk embeddings from three "sources" with staggered
	// ingestion times.
	ds := dataset.Generate(dataset.Spec{Name: "chunks", N: 1500, Dim: dim, Queries: 2, Seed: 3})
	sources := []string{"wiki", "docs", "tickets"}
	var sb strings.Builder
	sb.WriteString("INSERT INTO chunks VALUES ")
	for i := 0; i < ds.Vectors.Rows(); i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, '%s', %d, %s)", i, sources[i%3], 1_000_000+i, vecLit(ds.Vectors.Row(i)))
	}
	mustExec(engine, sb.String())
	// Cut the logged rows into segments now, not on the flusher's timer.
	if err := engine.Table("chunks").FlushWAL(); err != nil {
		log.Fatal(err)
	}

	q := ds.Queries.Row(0)

	// 1. Retrieval with a freshness filter. The predicate keeps ~33%
	//    of rows, so the CBO picks the post-filter strategy: the HNSW
	//    iterator streams candidates and the engine filters until k
	//    qualify — no restart, no over-fetch guessing.
	fmt.Println("-- context retrieval: 5 freshest-source chunks nearest the question --")
	show(engine, fmt.Sprintf(
		`SELECT chunk_id, source, dist FROM chunks
		 WHERE source = 'docs' AND ingested_at >= 1000500
		 ORDER BY L2Distance(embedding, %s) AS dist
		 LIMIT 5 SETTINGS ef_search=96`, vecLit(q)))

	// 2. Distance range search: everything semantically "close
	//    enough", regardless of count — the WHERE distance < r form is
	//    pushed into the index scan.
	fmt.Println("-- all chunks within distance 0.45 of the question --")
	show(engine, fmt.Sprintf(
		`SELECT chunk_id, source, dist FROM chunks
		 WHERE L2Distance(embedding, %s) < 0.45
		 ORDER BY L2Distance(embedding, %s) AS dist
		 LIMIT 100 SETTINGS ef_search=128`, vecLit(q), vecLit(q)))

	// 3. Realtime update: a document is re-embedded. BlendHouse writes
	//    the new version as a fresh segment and masks the old rows via
	//    a delete bitmap — no index mutation anywhere.
	tab := engine.Table("chunks")
	top, oldDist := topChunk(engine, q)
	fmt.Printf("re-ingesting chunk %d with a new embedding...\n\n", top)
	far := make([]float32, dim)
	for i := range far {
		far[i] = 50
	}
	upd, err := core.BuildBatch(tab.Schema(), [][]any{{top, "docs", int64(2_000_000), far}})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tab.Update(context.Background(), "chunk_id", upd); err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- same retrieval after the update (old version invisible) --")
	rows := show(engine, fmt.Sprintf(
		`SELECT chunk_id, source, dist FROM chunks
		 ORDER BY L2Distance(embedding, %s) AS dist
		 LIMIT 5 SETTINGS ef_search=96`, vecLit(q)))
	for _, row := range rows {
		if row[0].(int64) == top && row[2].(float64) == oldDist {
			log.Fatalf("chunk %d is still retrieved at its old distance %.4f after the update", top, oldDist)
		}
	}
	fmt.Printf("rows marked deleted awaiting compaction: %d\n", tab.DeletedRows())
}

// topChunk returns the chunk nearest q and its distance.
func topChunk(e *core.Engine, q []float32) (int64, float64) {
	res, err := e.Exec(context.Background(), fmt.Sprintf(
		`SELECT chunk_id, dist FROM chunks ORDER BY L2Distance(embedding, %s) AS dist LIMIT 1`, vecLit(q)))
	if err != nil {
		log.Fatal(err)
	}
	return res.Rows[0][0].(int64), res.Rows[0][1].(float64)
}

func mustExec(e *core.Engine, sqlText string) {
	if _, err := e.Exec(context.Background(), sqlText); err != nil {
		log.Fatalf("%v\nstatement: %.80s", err, sqlText)
	}
}

// show prints a query's result and returns its rows.
func show(e *core.Engine, sqlText string) [][]any {
	res, err := e.Exec(context.Background(), sqlText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			if f, ok := v.(float64); ok {
				cells[i] = fmt.Sprintf("%.4f", f)
			} else {
				cells[i] = fmt.Sprint(v)
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Println()
	return res.Rows
}

func vecLit(v []float32) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%.4f", f)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
