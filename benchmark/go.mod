module roadskyline/benchmark

go 1.23

require roadskyline v0.0.0

replace roadskyline => ../
