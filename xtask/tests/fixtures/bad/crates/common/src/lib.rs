// design-inventory fixture: `stats` is declared here but missing from
// DESIGN.md's `modules:` list, which still names a deleted `gate`.

pub mod clock;
pub mod stats;
