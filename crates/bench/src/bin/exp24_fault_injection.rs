fn main() {
    ia_bench::report::cli(ia_bench::exp24_fault_injection::report);
}
