// Package onealloc is netsamplint test input: one //netsamp:noalloc
// function with one allocating call.
package onealloc

import "fmt"

// Label renders n.
//
//netsamp:noalloc
func Label(n int) string {
	return fmt.Sprint(n)
}
