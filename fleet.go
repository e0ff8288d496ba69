package biglittle

import "biglittle/internal/fleet"

// FleetCoordinator is the distributed-lab control plane: an HTTP JSON job
// API (Mount) over a bounded pending queue, a lease table with expiry and
// bounded retries, and Prometheus fleet metrics. blserve hosts one;
// stateless blworker processes pull leases from it.
type FleetCoordinator = fleet.Coordinator

// FleetOptions configures a FleetCoordinator (queue bound, lease TTL,
// attempt budget, telemetry collector).
type FleetOptions = fleet.Options

// FleetClient talks to a coordinator. It implements the LabRunner.Remote
// executor interface, so attaching one routes every fingerprintable job in
// a sweep through the fleet while everything else simulates locally.
type FleetClient = fleet.Client

// FleetWorker is one stateless executor: it leases job specs, verifies and
// runs them through its own LabRunner (cache and audit mode included), and
// publishes results back with heartbeat renewal for long jobs.
type FleetWorker = fleet.Worker

// FleetJobSpec is the wire form of one simulation job: exactly the fields
// LabFingerprint hashes, with app and platform reduced to registry names.
type FleetJobSpec = fleet.JobSpec

// NewFleetCoordinator builds a coordinator and starts its lease reaper;
// Close stops it.
func NewFleetCoordinator(opt FleetOptions) *FleetCoordinator { return fleet.NewCoordinator(opt) }

// FleetSpecFromJob serializes a LabJob into its wire form, or explains why
// the job cannot travel (observers, salts, fork specs, unregistered apps or
// platforms).
func FleetSpecFromJob(job LabJob) (FleetJobSpec, error) { return fleet.SpecFromJob(job) }
