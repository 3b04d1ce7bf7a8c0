//! Task-to-task traffic matrices.

/// A square matrix of bytes transferred between application tasks.
///
/// `bytes(i, j)` is the payload task `i` sends to task `j` over the
/// application's lifetime (§2.1: the profile captures totals, not rates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMatrix {
    n: usize,
    bytes: Vec<u64>, // row-major n×n
}

impl TrafficMatrix {
    /// Zero matrix over `n` tasks.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix { n, bytes: vec![0; n * n] }
    }

    /// Build from a row-major vector (length must be `n²`).
    pub fn from_rows(n: usize, bytes: Vec<u64>) -> Self {
        assert_eq!(bytes.len(), n * n, "need n² entries");
        let mut m = TrafficMatrix { n, bytes };
        for i in 0..n {
            m.set(i, i, 0); // self-transfers are meaningless
        }
        m
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n
    }

    /// Bytes task `i` sends task `j`.
    pub fn bytes(&self, i: usize, j: usize) -> u64 {
        self.bytes[i * self.n + j]
    }

    /// Overwrite one entry. Diagonal writes are forced to zero.
    pub fn set(&mut self, i: usize, j: usize, b: u64) {
        self.bytes[i * self.n + j] = if i == j { 0 } else { b };
    }

    /// Add to one entry (saturating).
    pub fn add(&mut self, i: usize, j: usize, b: u64) {
        if i != j {
            let e = &mut self.bytes[i * self.n + j];
            *e = e.saturating_add(b);
        }
    }

    /// Total bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bytes leaving task `i` (row sum).
    pub fn egress(&self, i: usize) -> u64 {
        (0..self.n).map(|j| self.bytes(i, j)).sum()
    }

    /// Bytes entering task `j` (column sum).
    pub fn ingress(&self, j: usize) -> u64 {
        (0..self.n).map(|i| self.bytes(i, j)).sum()
    }

    /// All non-zero transfers `(i, j, bytes)` in **descending byte order**
    /// (ties broken by `(i, j)` for determinism) — the order Algorithm 1
    /// consumes them in.
    pub fn transfers_desc(&self) -> Vec<(usize, usize, u64)> {
        let mut v = Vec::new();
        self.transfers_desc_into(&mut v);
        v
    }

    /// [`TrafficMatrix::transfers_desc`] into a buffer the caller keeps:
    /// allocation-free once `out` has held this many transfers.
    pub fn transfers_desc_into(&self, out: &mut Vec<(usize, usize, u64)>) {
        out.clear();
        out.extend((0..self.n).flat_map(|i| (0..self.n).map(move |j| (i, j))).filter_map(
            |(i, j)| {
                let b = self.bytes(i, j);
                (b > 0).then_some((i, j, b))
            },
        ));
        // `(i, j)` is unique, so the order is total and an unstable sort
        // (which needs no buffer) gives the one answer.
        out.sort_unstable_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    }

    /// Merge another matrix into a combined one (block-diagonal): used when
    /// a tenant runs several applications "all at once" (§6.2) — task ids
    /// of `other` are shifted by `self.n_tasks()`.
    pub fn block_diag(&self, other: &TrafficMatrix) -> TrafficMatrix {
        let n = self.n + other.n;
        let mut m = TrafficMatrix::zeros(n);
        for i in 0..self.n {
            for j in 0..self.n {
                m.set(i, j, self.bytes(i, j));
            }
        }
        for i in 0..other.n {
            for j in 0..other.n {
                m.set(self.n + i, self.n + j, other.bytes(i, j));
            }
        }
        m
    }

    /// Coefficient of variation of the non-zero transfer sizes; 0 for
    /// perfectly uniform demand. §7.1: uniform-demand applications have
    /// little for Choreo to exploit.
    pub fn skewness(&self) -> f64 {
        let t = self.transfers_desc();
        if t.len() < 2 {
            return 0.0;
        }
        let mean = t.iter().map(|&(_, _, b)| b as f64).sum::<f64>() / t.len() as f64;
        let var =
            t.iter().map(|&(_, _, b)| (b as f64 - mean).powi(2)).sum::<f64>() / t.len() as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrafficMatrix {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 100);
        m.set(0, 2, 50);
        m.set(2, 1, 200);
        m
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.n_tasks(), 3);
        assert_eq!(m.bytes(0, 1), 100);
        assert_eq!(m.bytes(1, 0), 0);
        assert_eq!(m.total_bytes(), 350);
        assert_eq!(m.egress(0), 150);
        assert_eq!(m.ingress(1), 300);
    }

    #[test]
    fn diagonal_is_always_zero() {
        let mut m = sample();
        m.set(1, 1, 999);
        assert_eq!(m.bytes(1, 1), 0);
        m.add(2, 2, 999);
        assert_eq!(m.bytes(2, 2), 0);
        let m2 = TrafficMatrix::from_rows(2, vec![7, 1, 2, 7]);
        assert_eq!(m2.bytes(0, 0), 0);
        assert_eq!(m2.bytes(1, 1), 0);
    }

    #[test]
    fn transfers_sorted_descending() {
        let m = sample();
        let t = m.transfers_desc();
        assert_eq!(t, vec![(2, 1, 200), (0, 1, 100), (0, 2, 50)]);
    }

    #[test]
    fn transfer_order_deterministic_on_ties() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 10);
        m.set(1, 2, 10);
        m.set(0, 2, 10);
        let t = m.transfers_desc();
        assert_eq!(t, vec![(0, 1, 10), (0, 2, 10), (1, 2, 10)]);
    }

    #[test]
    fn block_diag_combines_apps() {
        let a = sample();
        let mut b = TrafficMatrix::zeros(2);
        b.set(0, 1, 7);
        let c = a.block_diag(&b);
        assert_eq!(c.n_tasks(), 5);
        assert_eq!(c.bytes(0, 1), 100);
        assert_eq!(c.bytes(3, 4), 7);
        assert_eq!(c.bytes(0, 3), 0, "no cross-application traffic");
        assert_eq!(c.total_bytes(), a.total_bytes() + b.total_bytes());
    }

    #[test]
    fn skewness_zero_for_uniform() {
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 1, 10);
        m.set(1, 2, 10);
        m.set(2, 0, 10);
        assert_eq!(m.skewness(), 0.0);
        let skewed = sample();
        assert!(skewed.skewness() > 0.3);
    }

    #[test]
    #[should_panic(expected = "n²")]
    fn from_rows_wrong_len_rejected() {
        TrafficMatrix::from_rows(2, vec![1, 2, 3]);
    }
}
