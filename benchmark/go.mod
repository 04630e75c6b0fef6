module mobistreams/benchmark

go 1.21

require mobistreams v0.0.0

replace mobistreams => ../
