// Package par is a stand-in for the repo's bounded parallel-for: a
// goroutine-spawning helper the rngescape analyzer knows by package name.
package par

// For runs fn(0..n-1) across workers goroutines.
func For(n, workers int, fn func(int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func(i int) { fn(i); done <- struct{}{} }(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}
