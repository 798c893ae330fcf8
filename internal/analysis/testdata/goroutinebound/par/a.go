// Package par is the goroutinebound exemption fixture: internal/par's
// worker crew is the sanctioned spawn site, so nothing here is flagged.
package par

func worker(int) {}

func spawnPool(n int) {
	for i := 0; i < n; i++ {
		go worker(i)
	}
}
