package dynnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"anondyn/internal/oracle"
)

func BenchmarkRandomConnected(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				if g := oracle.RandomConnected(n, 0.3, rng); !oracle.Connected(g) {
					b.Fatal("disconnected")
				}
			}
		})
	}
}

func BenchmarkConnectedCheck(b *testing.B) {
	g := oracle.RandomConnected(256, 0.1, rand.New(rand.NewSource(2)))
	for i := 0; i < b.N; i++ {
		if !oracle.Connected(g) {
			b.Fatal("disconnected")
		}
	}
}
