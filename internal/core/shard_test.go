package core

import (
	"fmt"
	"testing"
)

func TestShardOf(t *testing.T) {
	if ShardOf("db.t", 1) != 0 {
		t.Fatal("single shard must map to 0")
	}
	for i := 0; i < 100; i++ {
		s := ShardOf(fmt.Sprintf("db.t%d", i), 7)
		if s < 0 || s >= 7 {
			t.Fatalf("shard out of range: %d", s)
		}
		if s != ShardOf(fmt.Sprintf("db.t%d", i), 7) {
			t.Fatal("ShardOf not stable")
		}
	}
}
