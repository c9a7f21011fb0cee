// Command datagen materializes a synthetic Table I dataset to a raw
// little-endian float32 brick file (x-fastest layout), the interchange
// format of classic out-of-core visualization tools.
//
// Usage:
//
//	datagen -dataset lifted_rr -scale 0.125 -out lifted_rr.raw [-variable 0]
//
// The file holds Res.X×Res.Y×Res.Z float32 values of one variable. Writing
// streams row by row, so paper-size volumes (4 GB+) need only a few MB of
// memory.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/f32le"
	"repro/internal/volume"
)

func main() {
	var (
		dataset  = flag.String("dataset", "3d_ball", "dataset name")
		scale    = flag.Float64("scale", 0.125, "dataset scale factor")
		variable = flag.Int("variable", 0, "variable index to materialize")
		out      = flag.String("out", "", "output .raw path (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		os.Exit(2)
	}
	ds := volume.ByName(*dataset)
	if ds == nil {
		fmt.Fprintf(os.Stderr, "datagen: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
	ds = ds.Scale(*scale)
	if *variable < 0 || *variable >= ds.Variables {
		fmt.Fprintf(os.Stderr, "datagen: variable %d out of [0,%d)\n", *variable, ds.Variables)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	res := ds.Res
	row := make([]float32, res.X)
	var raw []byte
	for z := 0; z < res.Z; z++ {
		zc := (float64(z) + 0.5) / float64(res.Z)
		for y := 0; y < res.Y; y++ {
			yc := (float64(y) + 0.5) / float64(res.Y)
			for x := range row {
				xc := (float64(x) + 0.5) / float64(res.X)
				row[x] = float32(ds.Field.Sample(*variable, xc, yc, zc))
			}
			raw = f32le.Append(raw[:0], row)
			if _, err := w.Write(raw); err != nil {
				fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("datagen: wrote %s (%v, variable %d, %d bytes)\n",
		*out, res, *variable, res.Count()*4)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
