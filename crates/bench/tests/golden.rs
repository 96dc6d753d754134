//! Byte-for-byte checks of the paper's regenerated tables against text
//! checked in beside this file.
//!
//! Table 4, Table 5 and Figure 2 are computed on the virtual clock, so
//! they are identical on every host. A change that should leave virtual
//! time alone (a host-side optimisation, a refactor) must leave these
//! strings unchanged. A deliberate recalibration replaces the files with
//! the new rendered strings and says so.

use bench::experiments::{figure2, render_figure2, render_table4, render_table5, table4, table5};

#[test]
fn table4_matches_golden_text() {
    assert_eq!(render_table4(&table4()), include_str!("golden/table4.txt"));
}

#[test]
fn table5_matches_golden_text() {
    assert_eq!(render_table5(&table5()), include_str!("golden/table5.txt"));
}

#[test]
fn figure2_matches_golden_text() {
    assert_eq!(
        render_figure2(&figure2()),
        include_str!("golden/figure2.txt")
    );
}
