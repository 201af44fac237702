// Package unused carries an allow annotation naming shardconfine, an
// analyzer that no longer exists: no run set can contain it, so the
// -unused-allows audit must report the name itself.
package unused

var hits int

// Bump keeps a suppression whose analyzer is gone; nothing can ever
// use it.
func Bump() {
	//simlint:allow shardconfine(test fixture: names an analyzer that no longer exists)
	hits++
}
