//! The per-site Allowable Volume table ("AV management table" of Fig. 2).

use avdb_types::{AvdbError, FastMap, ProductId, Result, TxnId, Volume};
use serde::{Deserialize, Serialize};

/// AV state for one product at one site.
#[derive(Clone, Debug, Default)]
pub struct AvEntry {
    /// Whether an AV row is defined for this product here. The
    /// accelerator's *checking* function reads exactly this bit: defined →
    /// Delay Update, undefined → Immediate Update.
    pub defined: bool,
    /// Unheld AV immediately available to new transactions.
    pub available: Volume,
    /// Volume reserved by in-flight transactions, keyed by transaction.
    /// Not a lock: each transaction reserves only what it needs.
    holds: FastMap<TxnId, Volume>,
}

impl AvEntry {
    /// Total volume counting holds (what the site "keeps" in the paper's
    /// sense for conservation accounting).
    pub fn total(&self) -> Volume {
        self.available + self.holds.values().copied().sum::<Volume>()
    }

    /// Volume currently reserved by `txn`.
    pub fn held_by(&self, txn: TxnId) -> Volume {
        self.holds.get(&txn).copied().unwrap_or(Volume::ZERO)
    }

    /// Number of transactions holding volume here (test hook).
    pub fn holders(&self) -> usize {
        self.holds.len()
    }
}

/// Dense per-product AV table for one site.
///
/// ```
/// use avdb_escrow::AvTable;
/// use avdb_types::{ProductId, SiteId, TxnId, Volume};
///
/// let mut av = AvTable::new(1);
/// av.define(ProductId(0), Volume(40))?;
///
/// // A transaction holds the volume it needs — not a lock: a second
/// // transaction can hold the rest concurrently.
/// let txn = TxnId::new(SiteId(1), 0);
/// assert_eq!(av.hold_up_to(txn, ProductId(0), Volume(30))?, Volume(30));
/// assert_eq!(av.available(ProductId(0)), Volume(10));
///
/// // Commit consumes the held volume; rollback would release it instead.
/// av.consume(txn, ProductId(0), Volume(30))?;
/// assert_eq!(av.total(ProductId(0)), Volume(10));
/// # Ok::<(), avdb_types::AvdbError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct AvTable {
    entries: Vec<AvEntry>,
}

impl AvTable {
    /// Table with `n_products` undefined entries.
    pub fn new(n_products: usize) -> Self {
        AvTable { entries: (0..n_products).map(|_| AvEntry::default()).collect() }
    }

    fn entry(&self, product: ProductId) -> Result<&AvEntry> {
        self.entries.get(product.index()).ok_or(AvdbError::UnknownProduct(product))
    }

    fn entry_mut(&mut self, product: ProductId) -> Result<&mut AvEntry> {
        self.entries
            .get_mut(product.index())
            .ok_or(AvdbError::UnknownProduct(product))
    }

    /// Defines the AV row for `product` with an initial allotment.
    pub fn define(&mut self, product: ProductId, initial: Volume) -> Result<()> {
        if initial.is_negative() {
            return Err(AvdbError::NegativeAmount(initial));
        }
        let e = self.entry_mut(product)?;
        e.defined = true;
        e.available = initial;
        e.holds.clear();
        Ok(())
    }

    /// Removes the AV row (product reclassified to non-regular). Returns
    /// the volume that was still present so the caller can hand it back to
    /// the base site.
    pub fn undefine(&mut self, product: ProductId) -> Result<Volume> {
        let e = self.entry_mut(product)?;
        let total = e.total();
        e.defined = false;
        e.available = Volume::ZERO;
        e.holds.clear();
        Ok(total)
    }

    /// The *checking* function's predicate: is AV defined here?
    pub fn is_defined(&self, product: ProductId) -> bool {
        self.entry(product).map(|e| e.defined).unwrap_or(false)
    }

    /// Unheld AV available right now.
    pub fn available(&self, product: ProductId) -> Volume {
        self.entry(product).map(|e| e.available).unwrap_or(Volume::ZERO)
    }

    /// Total AV including in-flight holds.
    pub fn total(&self, product: ProductId) -> Volume {
        self.entry(product).map(|e| e.total()).unwrap_or(Volume::ZERO)
    }

    /// Volume held by `txn` on `product`.
    pub fn held_by(&self, txn: TxnId, product: ProductId) -> Volume {
        self.entry(product).map(|e| e.held_by(txn)).unwrap_or(Volume::ZERO)
    }

    /// Reserves up to `want` for `txn`, returning how much was actually
    /// taken (the paper's "holds the necessary amount of AV in advance",
    /// degrading to "holds all the AV at the site" on shortage).
    pub fn hold_up_to(&mut self, txn: TxnId, product: ProductId, want: Volume) -> Result<Volume> {
        if want.is_negative() {
            return Err(AvdbError::NegativeAmount(want));
        }
        let e = self.entry_mut(product)?;
        if !e.defined {
            return Err(AvdbError::InsufficientAv {
                product,
                requested: want,
                available: Volume::ZERO,
            });
        }
        let take = want.min(e.available);
        if take.is_positive() {
            e.available -= take;
            *e.holds.entry(txn).or_insert(Volume::ZERO) += take;
        }
        Ok(take)
    }

    /// Releases all of `txn`'s hold on `product` back to availability
    /// (rollback, or abort of a Delay Update that could not gather enough
    /// AV — "all accumulated AV is stored in the local AV table").
    pub fn release(&mut self, txn: TxnId, product: ProductId) -> Result<Volume> {
        let e = self.entry_mut(product)?;
        let held = e.holds.remove(&txn).unwrap_or(Volume::ZERO);
        e.available += held;
        Ok(held)
    }

    /// Consumes `amount` out of `txn`'s hold (the stock decrement
    /// committed); any remainder of the hold returns to availability.
    pub fn consume(&mut self, txn: TxnId, product: ProductId, amount: Volume) -> Result<()> {
        if amount.is_negative() {
            return Err(AvdbError::NegativeAmount(amount));
        }
        let e = self.entry_mut(product)?;
        let held = e.holds.remove(&txn).unwrap_or(Volume::ZERO);
        if amount > held {
            // Put the hold back before failing: consume is all-or-nothing.
            if held.is_positive() {
                e.holds.insert(txn, held);
            }
            return Err(AvdbError::InsufficientAv { product, requested: amount, available: held });
        }
        e.available += held - amount;
        Ok(())
    }

    /// Adds freshly received or newly created AV (transfer receipt, or a
    /// committed stock *increment* which mints matching AV).
    pub fn deposit(&mut self, product: ProductId, amount: Volume) -> Result<()> {
        if amount.is_negative() {
            return Err(AvdbError::NegativeAmount(amount));
        }
        let e = self.entry_mut(product)?;
        if !e.defined {
            return Err(AvdbError::InsufficientAv {
                product,
                requested: amount,
                available: Volume::ZERO,
            });
        }
        e.available += amount;
        Ok(())
    }

    /// Removes up to `amount` from availability for a transfer grant;
    /// returns what was actually taken.
    pub fn withdraw_up_to(&mut self, product: ProductId, amount: Volume) -> Result<Volume> {
        if amount.is_negative() {
            return Err(AvdbError::NegativeAmount(amount));
        }
        let e = self.entry_mut(product)?;
        let take = amount.min(e.available);
        e.available -= take;
        Ok(take)
    }

    /// Number of products with a defined AV row.
    pub fn defined_count(&self) -> usize {
        self.entries.iter().filter(|e| e.defined).count()
    }

    /// Iterates `(product, entry)` for defined rows.
    pub fn iter_defined(&self) -> impl Iterator<Item = (ProductId, &AvEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.defined)
            .map(|(i, e)| (ProductId(i as u32), e))
    }

    /// Releases every hold of `txn` across all products (crash cleanup on
    /// the requester side).
    pub fn release_all(&mut self, txn: TxnId) {
        for e in &mut self.entries {
            if let Some(held) = e.holds.remove(&txn) {
                e.available += held;
            }
        }
    }

    /// Releases every hold of every transaction — fail-stop crash
    /// handling: all in-flight local transactions are dead, so their
    /// reservations return to availability (AV itself is durable; holds
    /// are volatile).
    pub fn release_all_holds(&mut self) {
        for e in &mut self.entries {
            let held: Volume = e.holds.drain().map(|(_, v)| v).sum();
            e.available += held;
        }
    }

    /// Durable snapshot: the defined rows and their *total* volume
    /// (in-flight holds fold back into availability — they belong to
    /// transactions that will not survive the restart this snapshot is
    /// for).
    pub fn snapshot(&self) -> AvSnapshot {
        AvSnapshot {
            rows: self
                .entries
                .iter()
                .map(|e| e.defined.then(|| e.total()))
                .collect(),
        }
    }

    /// Rebuilds a table from a snapshot.
    pub fn from_snapshot(snap: &AvSnapshot) -> Self {
        AvTable {
            entries: snap
                .rows
                .iter()
                .map(|row| match row {
                    Some(total) => AvEntry { defined: true, available: *total, holds: FastMap::default() },
                    None => AvEntry::default(),
                })
                .collect(),
        }
    }
}

/// Serializable AV state: one optional total per product (None =
/// undefined row, i.e. non-regular product).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvSnapshot {
    /// Per-product defined totals, densely indexed.
    pub rows: Vec<Option<Volume>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::SiteId;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(1), n)
    }
    const P: ProductId = ProductId(0);

    fn table() -> AvTable {
        let mut t = AvTable::new(2);
        t.define(P, Volume(40)).unwrap();
        t
    }

    #[test]
    fn define_and_check() {
        let t = table();
        assert!(t.is_defined(P));
        assert!(!t.is_defined(ProductId(1)));
        assert!(!t.is_defined(ProductId(9)), "out of range is undefined, not panic");
        assert_eq!(t.available(P), Volume(40));
        assert_eq!(t.defined_count(), 1);
    }

    #[test]
    fn define_rejects_negative() {
        let mut t = AvTable::new(1);
        assert!(matches!(t.define(P, Volume(-1)), Err(AvdbError::NegativeAmount(_))));
    }

    #[test]
    fn hold_takes_min_of_want_and_available() {
        let mut tab = table();
        assert_eq!(tab.hold_up_to(t(1), P, Volume(30)).unwrap(), Volume(30));
        assert_eq!(tab.available(P), Volume(10));
        assert_eq!(tab.held_by(t(1), P), Volume(30));
        // Second hold gets only what's left.
        assert_eq!(tab.hold_up_to(t(2), P, Volume(30)).unwrap(), Volume(10));
        assert_eq!(tab.available(P), Volume::ZERO);
        assert_eq!(tab.total(P), Volume(40), "holds keep the total");
    }

    #[test]
    fn holds_are_not_exclusive() {
        let mut tab = table();
        // Two concurrent transactions each hold part of the same product's
        // AV — the paper's explicit non-lock behaviour.
        tab.hold_up_to(t(1), P, Volume(10)).unwrap();
        tab.hold_up_to(t(2), P, Volume(10)).unwrap();
        assert_eq!(tab.held_by(t(1), P), Volume(10));
        assert_eq!(tab.held_by(t(2), P), Volume(10));
        assert_eq!(tab.available(P), Volume(20));
    }

    #[test]
    fn hold_on_undefined_product_fails() {
        let mut tab = table();
        let err = tab.hold_up_to(t(1), ProductId(1), Volume(5)).unwrap_err();
        assert!(matches!(err, AvdbError::InsufficientAv { .. }));
    }

    #[test]
    fn release_returns_hold() {
        let mut tab = table();
        tab.hold_up_to(t(1), P, Volume(25)).unwrap();
        assert_eq!(tab.release(t(1), P).unwrap(), Volume(25));
        assert_eq!(tab.available(P), Volume(40));
        assert_eq!(tab.held_by(t(1), P), Volume::ZERO);
        // Releasing with no hold is a harmless zero.
        assert_eq!(tab.release(t(1), P).unwrap(), Volume::ZERO);
    }

    #[test]
    fn consume_uses_hold_and_returns_excess() {
        let mut tab = table();
        tab.hold_up_to(t(1), P, Volume(30)).unwrap();
        tab.consume(t(1), P, Volume(25)).unwrap();
        // 25 gone forever, 5 returned to available: 40 - 25 = 15 total.
        assert_eq!(tab.available(P), Volume(15));
        assert_eq!(tab.total(P), Volume(15));
        assert_eq!(tab.held_by(t(1), P), Volume::ZERO);
    }

    #[test]
    fn consume_more_than_held_fails_atomically() {
        let mut tab = table();
        tab.hold_up_to(t(1), P, Volume(10)).unwrap();
        let err = tab.consume(t(1), P, Volume(11)).unwrap_err();
        assert!(matches!(err, AvdbError::InsufficientAv { .. }));
        // Hold still intact.
        assert_eq!(tab.held_by(t(1), P), Volume(10));
        assert_eq!(tab.total(P), Volume(40));
    }

    #[test]
    fn deposit_and_withdraw() {
        let mut tab = table();
        tab.deposit(P, Volume(20)).unwrap();
        assert_eq!(tab.available(P), Volume(60));
        assert_eq!(tab.withdraw_up_to(P, Volume(100)).unwrap(), Volume(60));
        assert_eq!(tab.available(P), Volume::ZERO);
        assert_eq!(tab.withdraw_up_to(P, Volume(5)).unwrap(), Volume::ZERO);
        assert!(tab.deposit(ProductId(1), Volume(1)).is_err(), "undefined row");
        assert!(matches!(tab.deposit(P, Volume(-1)), Err(AvdbError::NegativeAmount(_))));
    }

    #[test]
    fn undefine_returns_total_and_clears() {
        let mut tab = table();
        tab.hold_up_to(t(1), P, Volume(15)).unwrap();
        let returned = tab.undefine(P).unwrap();
        assert_eq!(returned, Volume(40), "holds included in returned volume");
        assert!(!tab.is_defined(P));
        assert_eq!(tab.total(P), Volume::ZERO);
    }

    #[test]
    fn release_all_spans_products() {
        let mut tab = AvTable::new(3);
        tab.define(ProductId(0), Volume(10)).unwrap();
        tab.define(ProductId(1), Volume(10)).unwrap();
        tab.hold_up_to(t(1), ProductId(0), Volume(4)).unwrap();
        tab.hold_up_to(t(1), ProductId(1), Volume(6)).unwrap();
        tab.hold_up_to(t(2), ProductId(1), Volume(2)).unwrap();
        tab.release_all(t(1));
        assert_eq!(tab.available(ProductId(0)), Volume(10));
        assert_eq!(tab.available(ProductId(1)), Volume(8));
        assert_eq!(tab.held_by(t(2), ProductId(1)), Volume(2));
    }

    #[test]
    fn release_all_holds_returns_everything() {
        let mut tab = AvTable::new(2);
        tab.define(ProductId(0), Volume(10)).unwrap();
        tab.define(ProductId(1), Volume(20)).unwrap();
        tab.hold_up_to(t(1), ProductId(0), Volume(4)).unwrap();
        tab.hold_up_to(t(2), ProductId(1), Volume(9)).unwrap();
        tab.release_all_holds();
        assert_eq!(tab.available(ProductId(0)), Volume(10));
        assert_eq!(tab.available(ProductId(1)), Volume(20));
        assert_eq!(tab.held_by(t(1), ProductId(0)), Volume::ZERO);
    }

    #[test]
    fn snapshot_round_trip_folds_holds() {
        let mut tab = AvTable::new(3);
        tab.define(ProductId(0), Volume(40)).unwrap();
        tab.define(ProductId(2), Volume(7)).unwrap();
        tab.hold_up_to(t(1), ProductId(0), Volume(15)).unwrap();
        let snap = tab.snapshot();
        let restored = AvTable::from_snapshot(&snap);
        assert!(restored.is_defined(ProductId(0)));
        assert!(!restored.is_defined(ProductId(1)));
        assert_eq!(restored.available(ProductId(0)), Volume(40), "hold folded back");
        assert_eq!(restored.available(ProductId(2)), Volume(7));
        // Snapshot serializes.
        let json = serde_json::to_string(&snap).unwrap();
        let back: AvSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn iter_defined_lists_rows() {
        let mut tab = AvTable::new(3);
        tab.define(ProductId(2), Volume(7)).unwrap();
        let rows: Vec<_> = tab.iter_defined().map(|(p, e)| (p, e.available)).collect();
        assert_eq!(rows, vec![(ProductId(2), Volume(7))]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use avdb_types::SiteId;
    use proptest::prelude::*;

    /// Any sequence of hold/release/consume/deposit/withdraw keeps the
    /// invariant `total == initial + deposits - consumed - withdrawn` and
    /// never drives `available` negative.
    #[derive(Clone, Debug)]
    enum Op {
        Hold(u8, i64),
        Release(u8),
        Consume(u8, i64),
        Deposit(i64),
        Withdraw(i64),
    }

    fn ops() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..4, 0i64..50).prop_map(|(t, v)| Op::Hold(t, v)),
            (0u8..4).prop_map(Op::Release),
            (0u8..4, 0i64..50).prop_map(|(t, v)| Op::Consume(t, v)),
            (0i64..30).prop_map(Op::Deposit),
            (0i64..30).prop_map(Op::Withdraw),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_av_accounting_balances(seq in prop::collection::vec(ops(), 1..80)) {
            const P: ProductId = ProductId(0);
            let mut tab = AvTable::new(1);
            tab.define(P, Volume(100)).unwrap();
            let mut minted = Volume::ZERO;
            let mut consumed = Volume::ZERO;
            let mut withdrawn = Volume::ZERO;
            for op in seq {
                match op {
                    Op::Hold(t, v) => {
                        let txn = TxnId::new(SiteId(0), t as u64);
                        let got = tab.hold_up_to(txn, P, Volume(v)).unwrap();
                        prop_assert!(got <= Volume(v));
                    }
                    Op::Release(t) => {
                        let txn = TxnId::new(SiteId(0), t as u64);
                        tab.release(txn, P).unwrap();
                    }
                    Op::Consume(t, v) => {
                        let txn = TxnId::new(SiteId(0), t as u64);
                        let held = tab.held_by(txn, P);
                        if Volume(v) <= held {
                            tab.consume(txn, P, Volume(v)).unwrap();
                            consumed += Volume(v);
                        } else {
                            prop_assert!(tab.consume(txn, P, Volume(v)).is_err());
                        }
                    }
                    Op::Deposit(v) => {
                        tab.deposit(P, Volume(v)).unwrap();
                        minted += Volume(v);
                    }
                    Op::Withdraw(v) => {
                        withdrawn += tab.withdraw_up_to(P, Volume(v)).unwrap();
                    }
                }
                prop_assert!(tab.available(P) >= Volume::ZERO);
                prop_assert_eq!(
                    tab.total(P),
                    Volume(100) + minted - consumed - withdrawn,
                    "conservation violated"
                );
            }
        }
    }
}
