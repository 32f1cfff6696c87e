//! The backend-generic vector interface (SUNDIALS `N_Vector` analogue).

use std::cell::RefCell;
use std::rc::Rc;

/// Generic vector operations the integrator is written against.
pub trait NVector: Clone {
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn fill(&mut self, v: f64);
    fn copy_from(&mut self, other: &Self);
    /// `self = a * x + b * self`.
    fn linear_sum(&mut self, a: f64, x: &Self, b: f64);
    fn scale(&mut self, a: f64);
    fn dot(&self, other: &Self) -> f64;
    fn max_norm(&self) -> f64;
    /// Weighted RMS norm with weight vector `w` (CVODE's error norm).
    fn wrms_norm(&self, w: &Self) -> f64;
    /// Read-only view of the data (for RHS evaluation).
    fn as_slice(&self) -> &[f64];
    /// Mutable view of the data.
    fn as_mut_slice(&mut self) -> &mut [f64];
}

/// Host-memory vector.
#[derive(Debug, Clone, PartialEq)]
pub struct HostVec(pub Vec<f64>);

impl HostVec {
    pub fn zeros(n: usize) -> HostVec {
        HostVec(vec![0.0; n])
    }

    pub fn from_vec(v: Vec<f64>) -> HostVec {
        HostVec(v)
    }
}

impl NVector for HostVec {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn fill(&mut self, v: f64) {
        self.0.fill(v);
    }

    fn copy_from(&mut self, other: &Self) {
        self.0.copy_from_slice(&other.0);
    }

    fn linear_sum(&mut self, a: f64, x: &Self, b: f64) {
        for (s, xi) in self.0.iter_mut().zip(&x.0) {
            *s = a * xi + b * *s;
        }
    }

    fn scale(&mut self, a: f64) {
        for s in self.0.iter_mut() {
            *s *= a;
        }
    }

    fn dot(&self, other: &Self) -> f64 {
        linalg::dot(&self.0, &other.0)
    }

    fn max_norm(&self) -> f64 {
        self.0.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    fn wrms_norm(&self, w: &Self) -> f64 {
        let n = self.0.len().max(1);
        (self
            .0
            .iter()
            .zip(&w.0)
            .map(|(v, wi)| (v * wi) * (v * wi))
            .sum::<f64>()
            / n as f64)
            .sqrt()
    }

    fn as_slice(&self) -> &[f64] {
        &self.0
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }
}

/// Counts of vector operations, shared by all clones of a [`CountingVec`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct OpCounts {
    pub streaming_ops: u64,
    pub reductions: u64,
    pub bytes_moved: f64,
}

/// A vector that records every operation into a shared counter — the
/// "device-resident" backend. The integrator stays on the CPU; only vector
/// data (and therefore these ops) lives on the device, exactly the
/// SUNDIALS port architecture. A benchmark charges `OpCounts` to a
/// `hetsim` device afterwards.
#[derive(Debug, Clone)]
pub struct CountingVec {
    pub data: Vec<f64>,
    counts: Rc<RefCell<OpCounts>>,
}

impl CountingVec {
    pub fn zeros(n: usize, counts: Rc<RefCell<OpCounts>>) -> CountingVec {
        CountingVec {
            data: vec![0.0; n],
            counts,
        }
    }

    pub fn from_vec(v: Vec<f64>, counts: Rc<RefCell<OpCounts>>) -> CountingVec {
        CountingVec { data: v, counts }
    }

    pub fn shared_counts() -> Rc<RefCell<OpCounts>> {
        Rc::new(RefCell::new(OpCounts::default()))
    }

    fn stream(&self, vectors: f64) {
        let mut c = self.counts.borrow_mut();
        c.streaming_ops += 1;
        c.bytes_moved += vectors * 8.0 * self.data.len() as f64;
    }

    fn reduce(&self) {
        let mut c = self.counts.borrow_mut();
        c.reductions += 1;
        c.bytes_moved += 8.0 * self.data.len() as f64;
    }
}

impl NVector for CountingVec {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn fill(&mut self, v: f64) {
        self.stream(1.0);
        self.data.fill(v);
    }

    fn copy_from(&mut self, other: &Self) {
        self.stream(2.0);
        self.data.copy_from_slice(&other.data);
    }

    fn linear_sum(&mut self, a: f64, x: &Self, b: f64) {
        self.stream(3.0);
        for (s, xi) in self.data.iter_mut().zip(&x.data) {
            *s = a * xi + b * *s;
        }
    }

    fn scale(&mut self, a: f64) {
        self.stream(2.0);
        for s in self.data.iter_mut() {
            *s *= a;
        }
    }

    fn dot(&self, other: &Self) -> f64 {
        self.reduce();
        linalg::dot(&self.data, &other.data)
    }

    fn max_norm(&self) -> f64 {
        self.reduce();
        self.data.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    fn wrms_norm(&self, w: &Self) -> f64 {
        self.reduce();
        let n = self.data.len().max(1);
        (self
            .data
            .iter()
            .zip(&w.data)
            .map(|(v, wi)| (v * wi) * (v * wi))
            .sum::<f64>()
            / n as f64)
            .sqrt()
    }

    fn as_slice(&self) -> &[f64] {
        &self.data
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_vec_ops() {
        let mut a = HostVec::from_vec(vec![1.0, 2.0]);
        let b = HostVec::from_vec(vec![3.0, 4.0]);
        a.linear_sum(2.0, &b, 1.0);
        assert_eq!(a.0, vec![7.0, 10.0]);
        assert_eq!(a.dot(&b), 61.0);
        assert_eq!(a.max_norm(), 10.0);
    }

    #[test]
    fn wrms_norm_of_uniform() {
        let v = HostVec::from_vec(vec![2.0; 8]);
        let w = HostVec::from_vec(vec![0.5; 8]);
        assert!((v.wrms_norm(&w) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn counting_vec_tracks_ops_across_clones() {
        let c = CountingVec::shared_counts();
        let mut a = CountingVec::zeros(100, c.clone());
        let b = CountingVec::from_vec(vec![1.0; 100], c.clone());
        a.copy_from(&b);
        a.linear_sum(1.0, &b, 2.0);
        let _ = a.dot(&b);
        let counts = *c.borrow();
        assert_eq!(counts.streaming_ops, 2); // copy_from + linear_sum
        assert_eq!(counts.reductions, 1);
        assert!(counts.bytes_moved > 0.0);
    }

    #[test]
    fn counting_vec_matches_host_semantics() {
        let c = CountingVec::shared_counts();
        let mut a = CountingVec::from_vec(vec![1.0, -2.0], c.clone());
        a.scale(-2.0);
        assert_eq!(a.data, vec![-2.0, 4.0]);
    }
}
