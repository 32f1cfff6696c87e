//! CUDA Unified Memory model.
//!
//! Several activities leaned on unified memory: hypre's BoomerAMG solve
//! phase *requires* it (§4.10.1), MFEM added it to its matrix classes for
//! hypre integration (§4.10.4), SAMRAI's performance work was largely about
//! *reducing unnecessary unified-memory traffic* (§4.10.5), and VBL noted
//! that unified memory moves data in 64 KiB blocks (§4.11).
//!
//! The model: a migration moves data page-by-page; each page fault costs a
//! fixed service time on top of the link transfer, so small or scattered
//! working sets see far less than link bandwidth.
//!
//! Residency lives in [`crate::mem`]: under
//! [`crate::OomPolicy::UnifiedSpill`], [`crate::Sim::touch_mem`] charges
//! each fault-in or eviction as a [`crate::TransferKind::Unified`] copy,
//! which [`crate::Sim::transfer_cost`] prices with [`migration_time`].

use crate::spec::LinkSpec;

/// Unified-memory page size (the 64 KiB granularity §4.11 cites).
pub const PAGE_BYTES: f64 = 64.0 * 1024.0;

/// GPU page-fault service time, seconds (fault + TLB shootdown + map).
pub const FAULT_SERVICE_S: f64 = 20e-6;

/// Number of pages touched by `bytes` of migration.
pub fn pages(bytes: f64) -> f64 {
    (bytes / PAGE_BYTES).ceil().max(0.0)
}

/// Time to migrate `bytes` on first touch over `link`.
pub fn migration_time(link: &LinkSpec, bytes: f64) -> f64 {
    if bytes <= 0.0 {
        return 0.0;
    }
    // Faults are serviced in batches of up to 16 pages on Pascal+.
    let fault_batches = (pages(bytes) / 16.0).ceil();
    fault_batches * FAULT_SERVICE_S + bytes / (link.bw_gbs * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LinkKind;

    fn nvlink() -> LinkSpec {
        LinkSpec {
            kind: LinkKind::NvLink2,
            bw_gbs: 68.0,
            latency_us: 8.0,
        }
    }

    #[test]
    fn page_rounding() {
        assert_eq!(pages(1.0), 1.0);
        assert_eq!(pages(PAGE_BYTES), 1.0);
        assert_eq!(pages(PAGE_BYTES + 1.0), 2.0);
    }

    #[test]
    fn migration_slower_than_bulk_copy() {
        let l = nvlink();
        let bytes = 8.0 * 1024.0 * 1024.0;
        assert!(migration_time(&l, bytes) > l.transfer_time(bytes));
    }

    #[test]
    fn ping_pong_costs_double() {
        // The Cardioid lesson (§4.1): moving data to the "optimal" processor
        // every iteration can cost more than computing in place. A round
        // trip through a `Sim` pays one migration each way over the same
        // link.
        let s = crate::Sim::new(crate::machines::sierra_node());
        let (host, gpu) = (crate::Loc::Host, crate::Loc::Gpu(0));
        let kind = crate::TransferKind::Unified;
        let round_trip =
            s.transfer_cost(host, gpu, 64e6, kind) + s.transfer_cost(gpu, host, 64e6, kind);
        let one_way = migration_time(&s.machine().host_gpu_link(), 64e6);
        assert_eq!(round_trip, 2.0 * one_way);
        assert!(one_way > s.machine().host_gpu_link().transfer_time(64e6));
    }
}
