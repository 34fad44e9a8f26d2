package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"fastbfs"
	"fastbfs/internal/bfs"
)

// checkEngineResult is the correctness gate for one engine answer: the
// BFS tree must pass Graph500-style validation against the generated
// edges, and its levels must equal the reference BFS's.
func checkEngineResult(m fastbfs.Meta, edges []fastbfs.Edge, root fastbfs.VertexID, res *fastbfs.Result, ref *bfs.Result) error {
	if err := fastbfs.ValidateBFS(m, edges, root, res); err != nil {
		return err
	}
	return equalLevels(res.Levels, ref.Level)
}

func equalLevels(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("level array has %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: level %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// valueField returns the raw JSON array of the named field in a
// /query response body ("levels" or "distances"), or nil when absent.
// The service's encoder writes arrays of plain numbers, so the array
// ends at the first ']'.
func valueField(body []byte, field string) []byte {
	key := []byte(`"` + field + `":[`)
	i := bytes.Index(body, key)
	if i < 0 {
		return nil
	}
	start := i + len(key) - 1
	end := bytes.IndexByte(body[start:], ']')
	if end < 0 {
		return nil
	}
	return body[start : start+end+1]
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digest(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// expectedDigest is the checksum of the array a correct answer carries:
// the level array for bfs and msbfs (the minimum over the roots' BFS
// levels), the distance array for sssp (unit weights, -1 unreached),
// encoded the way the service encodes it.
func expectedDigest(q serveQuery, levelsOf func(fastbfs.VertexID) []uint32) (uint32, error) {
	var v any
	switch q.Algorithm {
	case "bfs":
		v = levelsOf(fastbfs.VertexID(q.Root))
	case "msbfs":
		min := append([]uint32(nil), levelsOf(fastbfs.VertexID(q.Roots[0]))...)
		for _, r := range q.Roots[1:] {
			for i, l := range levelsOf(fastbfs.VertexID(r)) {
				if l < min[i] {
					min[i] = l
				}
			}
		}
		v = min
	case "sssp":
		levels := levelsOf(fastbfs.VertexID(q.Root))
		d := make([]float32, len(levels))
		for i, l := range levels {
			d[i] = -1
			if l != bfs.NoLevel {
				d[i] = float32(l)
			}
		}
		v = d
	default:
		return 0, fmt.Errorf("unknown algorithm %q", q.Algorithm)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return digest(b), nil
}

// answerField is the response field that carries q's answer.
func answerField(algorithm string) string {
	if algorithm == "sssp" {
		return "distances"
	}
	return "levels"
}
