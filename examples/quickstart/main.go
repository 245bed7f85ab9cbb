// Quickstart: create a table with a vector index, insert a few rows,
// and run a hybrid query — all through the SQL API of the engine.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"blendhouse/internal/core"
	"blendhouse/internal/storage"
)

func main() {
	// An in-memory blob store stands in for remote shared storage;
	// swap in storage.NewFSStore(dir) for a persistent instance.
	engine, err := core.New(core.Config{Store: storage.NewMemStore()})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close() // drain the write-ahead log into segments

	// The dialect of the paper's Example 1: vector columns are plain
	// Array(Float32); the INDEX clause declares the ANN index and the
	// dimension.
	mustExec(engine, `
		CREATE TABLE articles (
			id UInt64,
			topic String,
			embedding Array(Float32),
			INDEX ann_idx embedding TYPE HNSW('DIM=8','M=16')
		)`)

	// Insert 1000 synthetic article embeddings in one statement.
	rng := rand.New(rand.NewSource(1))
	topics := []string{"sports", "science", "politics"}
	var sb strings.Builder
	sb.WriteString("INSERT INTO articles VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, '%s', %s)", i, topics[i%3], randVec(rng, 8))
	}
	mustExec(engine, sb.String())

	// Pure vector search: ORDER BY a distance function + LIMIT is the
	// top-k idiom.
	query := randVec(rng, 8)
	fmt.Println("-- top-5 nearest articles --")
	show(engine, fmt.Sprintf(
		`SELECT id, topic, dist FROM articles
		 ORDER BY L2Distance(embedding, %s) AS dist LIMIT 5`, query))

	// Hybrid query: scalar filter + vector search in one statement.
	// The cost-based optimizer picks pre-filter, post-filter, or brute
	// force automatically.
	fmt.Println("-- top-5 nearest science articles --")
	show(engine, fmt.Sprintf(
		`SELECT id, topic, dist FROM articles
		 WHERE topic = 'science'
		 ORDER BY L2Distance(embedding, %s) AS dist
		 LIMIT 5 SETTINGS ef_search=64`, query))
}

func mustExec(e *core.Engine, sqlText string) {
	if _, err := e.Exec(context.Background(), sqlText); err != nil {
		log.Fatalf("%v\nstatement: %.80s", err, sqlText)
	}
}

func show(e *core.Engine, sqlText string) {
	res, err := e.Exec(context.Background(), sqlText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				fmt.Print("\t")
			}
			fmt.Print(v)
		}
		fmt.Println()
	}
	fmt.Println()
}

func randVec(rng *rand.Rand, dim int) string {
	parts := make([]string, dim)
	for i := range parts {
		parts[i] = fmt.Sprintf("%.3f", rng.Float32())
	}
	return "[" + strings.Join(parts, ",") + "]"
}
