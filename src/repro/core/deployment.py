"""End-to-end BorderPatrol deployment.

Ties every component to its place in the paper's architecture
(Figure 1): the Offline Analyzer and its database live in the
enterprise back office, the Policy Enforcer and Packet Sanitizer sit in
NFQUEUEs at the gateway, and provisioned devices ship the patched
kernel, the Xposed framework and the Context Manager module.  This is
the object most examples and experiments interact with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.app_model import AppBehavior
from repro.android.costs import CostModel
from repro.android.device import Device, NetworkMode
from repro.apk.package import ApkFile
from repro.core.context_manager import ContextManager, ContextManagerMode
from repro.core.database import SignatureDatabase
from repro.core.offline_analyzer import OfflineAnalyzer
from repro.core.packet_sanitizer import PacketSanitizer
from repro.core.policy import Policy
from repro.core.policy_enforcer import PolicyEnforcer
from repro.core.policy_store import PolicyDelta, PolicyStore, PolicyUpdate
from repro.core.encoding import IndexWidth
from repro.netstack.sockets import KernelConfig
from repro.network.topology import EnterpriseNetwork, NetworkConfig


@dataclass
class ProvisionedDevice:
    """A device enrolled in the BYOD programme plus its Context Manager."""

    device: Device
    context_manager: ContextManager


class BorderPatrolDeployment:
    """A complete BorderPatrol installation for one enterprise network."""

    def __init__(
        self,
        network: EnterpriseNetwork | None = None,
        policy: Policy | None = None,
        drop_untagged: bool = True,
        drop_unknown_apps: bool = True,
        index_width: IndexWidth = IndexWidth.FIXED_2,
        cost_model: CostModel | None = None,
        context_manager_mode: ContextManagerMode = ContextManagerMode.DYNAMIC,
        tag_replay_hardening: bool = False,
        enforcer_shards: int = 1,
        num_gateways: int = 1,
        keep_records: bool = True,
        compact_every: int | None = None,
    ) -> None:
        if num_gateways < 1:
            raise ValueError("a deployment needs at least one gateway")
        if network is None:
            network = (
                EnterpriseNetwork(config=NetworkConfig(num_gateways=num_gateways))
                if num_gateways > 1
                else EnterpriseNetwork()
            )
        elif len(network.gateways) != num_gateways:
            raise ValueError(
                f"deployment wants {num_gateways} gateway(s) but the network "
                f"has {len(network.gateways)}; build the EnterpriseNetwork with "
                f"NetworkConfig(num_gateways={num_gateways})"
            )
        self.network = network
        self.cost_model = cost_model or CostModel()
        self.index_width = index_width
        self.context_manager_mode = context_manager_mode
        self.tag_replay_hardening = tag_replay_hardening
        self.enforcer_shards = enforcer_shards
        self.num_gateways = num_gateways

        self.database = SignatureDatabase()
        self.offline_analyzer = OfflineAnalyzer(self.database)
        enforcer_kwargs = dict(
            database=self.database,
            # Not `policy or ...`: an *empty* Policy is falsy (__len__)
            # and must still be kept by reference.
            policy=policy if policy is not None else Policy.allow_all(),
            drop_untagged=drop_untagged,
            drop_unknown_apps=drop_unknown_apps,
            index_width=index_width,
            # Per-packet audit records are the default; fleet-scale
            # replays turn them off to keep the hot path lean.
            keep_records=keep_records,
        )
        self.sanitizer = PacketSanitizer()
        #: The replicated-gateway runtime; None for the classic
        #: single-gateway deployment.
        self.fleet = None
        if num_gateways > 1:
            # Imported lazily: the fleet builds on sharding, which sits on
            # the netstack package — a module-level import would be circular.
            from repro.core.fleet import GatewayFleet

            initial_policy = enforcer_kwargs.pop("policy")
            self.fleet = GatewayFleet(
                policy=initial_policy,
                num_gateways=num_gateways,
                shards_per_gateway=enforcer_shards,
                live=True,
                compact_every=compact_every,
                **enforcer_kwargs,
            )
            #: Head-gateway enforcer, for single-gateway call sites.
            self.enforcer = self.fleet.replicas[0].enforcer
            self.policy_store = self.fleet.store
            self.network.install_fleet_queue_chains(
                self.fleet,
                sanitizer=self.sanitizer,
                queue_latency_ms=self.cost_model.nfqueue_ms,
            )
        else:
            if enforcer_shards > 1:
                # Imported lazily: sharding builds on the enforcer, which in
                # turn sits on the netstack package, so a module-level import
                # here would be circular.
                from repro.netstack.sharding import ShardedEnforcer

                self.enforcer = ShardedEnforcer(
                    num_shards=enforcer_shards, **enforcer_kwargs
                )
            else:
                self.enforcer = PolicyEnforcer(**enforcer_kwargs)
            #: The versioned control plane for the gateway's policy.  Seeded
            #: from the enforcer's initial rules (push=False: the enforcer
            #: already holds them), it fans versioned deltas out to every
            #: enforcer shard on :meth:`apply_update`.
            self.policy_store = PolicyStore.from_policy(enforcer_kwargs["policy"])
            self.policy_store.compact_every = compact_every
            self.policy_store.subscribe(self.enforcer, push=False)
            self.network.install_queue_chain(
                enforcer=self.enforcer,
                sanitizer=self.sanitizer,
                queue_latency_ms=self.cost_model.nfqueue_ms,
            )
        self.devices: list[ProvisionedDevice] = []

    # -- policy management -------------------------------------------------------------

    @property
    def policy(self) -> Policy:
        return self.enforcer.policy

    @property
    def policy_version(self) -> int:
        """The control plane's monotonic policy version."""
        return self.policy_store.version

    def set_policy(self, policy: Policy) -> None:
        """Update the centrally managed policy (one spot for all devices).

        Compatibility shim over the control plane: records a full
        replacement in the :attr:`policy_store` (one version bump) and
        hands the caller's Policy *object* to the enforcer by reference,
        so legacy in-place ``add_rule`` edits keep taking effect.  For
        incremental edits that keep unaffected flow caches warm, use
        :meth:`apply_update`.

        On a multi-gateway deployment the replacement replicates through
        the delta log as a sync record; replica gateways hold their own
        parsed copies, so the by-reference in-place-edit contract only
        extends to the head gateway — fleet deployments should prefer
        :meth:`apply_update` for all edits.
        """
        self.policy_store.reset_to(policy)

    def apply_update(self, update: PolicyUpdate) -> PolicyDelta:
        """Apply a batched policy delta live at the gateway.

        The store commits the transaction, bumps the version, and every
        enforcer shard recompiles only the apps the changed rules can
        touch — unaffected hot flows keep their cached verdicts.
        """
        return self.policy_store.apply(update)

    # -- fleet scale-out ---------------------------------------------------------------

    def add_gateway(self):
        """Bring one more gateway into a fleet deployment, live.

        The new gateway replica bootstraps from the policy store's delta
        log (base snapshot + suffix — O(suffix) with retention enabled,
        not O(history)), the network grows a border gateway, and its
        enforcement chain is installed so flow-hash routing immediately
        spreads traffic across the enlarged fleet.
        """
        if self.fleet is None:
            raise ValueError(
                "add_gateway needs a fleet deployment; build with num_gateways > 1"
            )
        replica = self.fleet.add_gateway()
        gateway_index = len(self.network.gateways)
        self.network.add_gateway()
        self.network.install_queue_chain(
            enforcer=replica.enforcer,
            sanitizer=self.sanitizer,
            queue_latency_ms=self.cost_model.nfqueue_ms,
            gateway_index=gateway_index,
        )
        self.num_gateways += 1
        return replica

    # -- telemetry ---------------------------------------------------------------------

    def attach_telemetry(self, auditor) -> None:
        """Publish every gateway's enforcement records into ``auditor``.

        ``auditor`` exposes ``pipeline_for(gateway_name)`` (canonically
        a :class:`~repro.telemetry.pipeline.FleetAuditor`); fleet
        deployments get one pipeline per gateway, single-gateway
        deployments one pipeline named ``gw0``.
        """
        if self.fleet is not None:
            self.fleet.attach_telemetry(auditor)
        else:
            self.enforcer.attach_audit_sink(auditor.pipeline_for("gw0"), "gw0")

    def attach_ops(self, control_plane) -> None:
        """Wire an operator control plane into this deployment.

        ``control_plane`` exposes an ``auditor`` (canonically a
        :class:`repro.ops.console.OperatorControlPlane`, duck-typed so
        core never imports ops).  The control plane owns the
        consumer-side wiring — alert bus, routing, federation — and
        this call attaches its auditor to the data plane, fleet or
        single-gateway alike.
        """
        self.attach_telemetry(control_plane.auditor)

    # -- app enrolment -------------------------------------------------------------------

    def enroll_app(self, apk: ApkFile) -> None:
        """Run the Offline Analyzer over a new app the enterprise wants to manage."""
        self.offline_analyzer.analyze(apk)

    def enroll_apps(self, apks: list[ApkFile]) -> None:
        self.offline_analyzer.analyze_batch(apks)

    # -- device provisioning -----------------------------------------------------------------

    def provision_device(
        self,
        name: str = "byod-device",
        network_mode: NetworkMode = NetworkMode.TAP,
        native_hooking: bool = False,
    ) -> ProvisionedDevice:
        """Create a provisioned device: patched kernel, Xposed, Context Manager.

        ``native_hooking`` enables the Frida-style extension discussed in
        the paper's §VII, letting the Context Manager also tag sockets
        opened from native code.
        """
        device = Device(
            name=name,
            network=self.network,
            kernel_config=KernelConfig(
                allow_unprivileged_ip_options=True,
                enforce_setsockopt_once=self.tag_replay_hardening,
            ),
            cost_model=self.cost_model,
            network_mode=network_mode,
            xposed_installed=True,
            native_hooking=native_hooking,
        )
        context_manager = ContextManager(
            device=device, mode=self.context_manager_mode, index_width=self.index_width
        )
        context_manager.install()
        provisioned = ProvisionedDevice(device=device, context_manager=context_manager)
        self.devices.append(provisioned)
        return provisioned

    # -- convenience -----------------------------------------------------------------------------

    def install_and_launch(
        self, provisioned: ProvisionedDevice, apk: ApkFile, behavior: AppBehavior
    ):
        """Enroll, install and launch an app on a provisioned device in one call."""
        self.enroll_app(apk)
        provisioned.device.install(apk, behavior)
        return provisioned.device.launch(apk.package_name)

    def reset_observations(self) -> None:
        """Clear captures, enforcement records and server state between runs."""
        self.network.reset_observations()
        if self.fleet is not None:
            self.fleet.reset()
        else:
            self.enforcer.reset()
