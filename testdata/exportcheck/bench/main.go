// Command bench calls lib.BenchOnly, as the repo's bench/ calls the product.
package main

import "fixture/lib"

func main() { lib.BenchOnly().Do() }

// Unused is declared under bench/, which the check does not scan.
func Unused() {}
