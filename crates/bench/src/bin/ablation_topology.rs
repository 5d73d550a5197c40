//! Ablation: peer-to-peer KECho channels vs. a Supermon-style central
//! collector (DESIGN.md §5.4), as two tables.
fn main() {
    for table in dproc_bench::harness::ablation_topology_data() {
        println!("{}", table.render());
    }
}
