//! Pins Table 1 of the paper as the engine reproduces it: for each of the
//! five assume-guarantee obligations, the verdict, the refinement count, the
//! size of the final pruned state space and the full back-annotation
//! listing (constraint names, slacks and order). Row 5 also pins the exact
//! reason it is inconclusive.
//!
//! Only a change to the engine's constraint semantics may move these values,
//! and it has to show why the old value was wrong.

use transyt::Verdict;

type Row = fn() -> Result<Verdict, ipcmos::ExperimentError>;

/// One row of the pin: the verdict kind (`"verified"`, `"failed"` or
/// `"inconclusive"`), refinements, explored states and listing lines.
struct Pin {
    row: Row,
    kind: &'static str,
    refinements: usize,
    explored_states: usize,
    listing: &'static [&'static str],
}

const PINS: [Pin; 5] = [
    Pin {
        row: ipcmos::experiment_1,
        kind: "verified",
        refinements: 0,
        explored_states: 5,
        listing: &["(no relative-timing constraints required)"],
    },
    Pin {
        row: ipcmos::experiment_2,
        kind: "verified",
        refinements: 2,
        explored_states: 140,
        listing: &[
            "  Z_1+ < ACK0+ (slack 6)",
            "  CLKE_1- < ACK0+ (slack 4)",
            "  Z_1+ < CLKE_1- (slack 1)",
            "  Z_1+ < VALID0+ (slack 6)",
            "  Z_1+ < Y_1- (slack 7)",
            "  CLKE_1- < VALID0+ (slack 4)",
            "  CLKE_1- < Y_1- (slack 5)",
            "  W_1- < ACK0+ (slack 1)",
            "  W_1- < Y_1- (slack 2)",
            "  Vint_1+ < ACK1- (slack 2)",
            "  CLKR_1+ < Z_1- (slack 1)",
            "  ACK0- < Z_1- (slack 1)",
            "  ACK0- < CLKE_1+ (slack 1)",
            "  ACK0- < Y_1+ (slack 2)",
        ],
    },
    Pin {
        row: ipcmos::experiment_3,
        kind: "verified",
        refinements: 2,
        explored_states: 202,
        listing: &[
            "  Z_1+ < ACK0+ (slack 6)",
            "  CLKE_1- < ACK0+ (slack 4)",
            "  Z_1+ < VALID0+ (slack 11)",
            "  CLKE_1- < VALID0+ (slack 9)",
            "  Z_1+ < CLKE_1- (slack 1)",
            "  Z_1+ < Y_1- (slack 7)",
            "  CLKE_1- < Y_1- (slack 5)",
            "  W_1- < ACK0+ (slack 1)",
            "  W_1- < Y_1- (slack 2)",
            "  CLKR_1+ < Z_1- (slack 1)",
            "  ACK0- < Z_1- (slack 1)",
            "  ACK0- < CLKE_1+ (slack 1)",
            "  ACK0- < Y_1+ (slack 2)",
        ],
    },
    Pin {
        row: ipcmos::experiment_4,
        kind: "verified",
        refinements: 2,
        explored_states: 142,
        listing: &[
            "  Z_1+ < ACK0+ (slack 6)",
            "  CLKE_1- < ACK0+ (slack 4)",
            "  Z_1+ < CLKE_1- (slack 1)",
            "  Z_1+ < VALID0+ (slack 6)",
            "  Z_1+ < Y_1- (slack 7)",
            "  CLKE_1- < VALID0+ (slack 4)",
            "  CLKE_1- < Y_1- (slack 5)",
            "  W_1- < ACK0+ (slack 1)",
            "  W_1- < Y_1- (slack 2)",
            "  CLKR_1+ < Z_1- (slack 1)",
            "  ACK0- < Z_1- (slack 1)",
            "  ACK0- < CLKE_1+ (slack 1)",
            "  ACK0- < Y_1+ (slack 2)",
        ],
    },
    Pin {
        row: ipcmos::experiment_5,
        kind: "inconclusive",
        refinements: 10,
        explored_states: 22,
        listing: &[
            "  Vint_1- < VALID0+ (slack 13)",
            "  Z_1+ < ACK0+ (slack 6)",
            "  CLKE_1- < ACK0+ (slack 4)",
            "  Z_1+ < VALID0+ (slack 11)",
            "  CLKE_1- < VALID0+ (slack 9)",
            "  Z_1+ < CLKE_1- (slack 1)",
            "  Z_1+ < Y_1- (slack 7)",
            "  CLKE_1- < Y_1- (slack 5)",
            "  W_1- < ACK0+ (slack 1)",
            "  W_1- < Y_1- (slack 2)",
            "  VALID0+ < ACK1- (slack 5)",
            "  CLKR_1- < ACK1- (slack 4)",
            "  ACK0+ < VALID0+ (slack 2)",
            "  W_1- < VALID0+ (slack 6)",
            "  Y_1- < ACK1+ (slack 7)",
            "  Vint_1+ < ACK1- (slack 2)",
            "  Vint_1+ < CLKR_1+ (slack 3)",
            "  ACK0+ < ACK1+ (slack 3)",
            "  Y_1- < VALID0- (slack 3)",
            "  Y_1- < VALID0+ (slack 18)",
            "  ACK1- < VALID0+ (slack 10)",
            "  Y_1- < ACK1- (slack 4)",
            "  ACK0- < Z_1- (slack 1)",
            "  ACK0- < CLKR_1+ (slack 1)",
            "  ACK0- < CLKE_1+ (slack 1)",
            "  ACK0- < Y_1+ (slack 2)",
            "  CLKE_1+ < Vint_1- (slack 1)",
            "  CLKE_1+ < VALID0+ (slack 13)",
            "  W_1+ < CLKE_1- (slack 2)",
            "  W_1+ < VALID0+ (slack 10)",
            "  W_1+ < ACK0+ (slack 7)",
            "  ACK1+ < VALID0+ (slack 11)",
            "  CLKR_1+ < VALID1+ (slack 1)",
            "  VALID1- < VALID0+ (slack 4)",
            "  VALID1- < VALID0- (slack 9)",
        ],
    },
];

const ROW_5_REASON: &str = "the relative-timing constraints block every enabled event in state \
    {p0,p4,p5}|0101100110|{p1,p4,p5} (over-constrained refinement)";

#[test]
fn table_1_rows_are_pinned() {
    for (i, pin) in PINS.iter().enumerate() {
        let row = i + 1;
        let verdict = (pin.row)().expect("the experiment builds");
        let kind = match &verdict {
            Verdict::Verified(_) => "verified",
            Verdict::Failed { .. } => "failed",
            Verdict::Inconclusive { .. } => "inconclusive",
        };
        assert_eq!(kind, pin.kind, "row {row}: {verdict}");
        let report = verdict.report();
        assert_eq!(report.refinements, pin.refinements, "row {row} refinements");
        assert_eq!(
            report.explored_states, pin.explored_states,
            "row {row} explored states"
        );
        assert_eq!(
            report.constraint_listing(),
            pin.listing.join("\n"),
            "row {row} constraint listing"
        );
        if let Verdict::Inconclusive { reason, .. } = &verdict {
            assert_eq!(reason, ROW_5_REASON, "row {row} reason");
        }
    }
}
