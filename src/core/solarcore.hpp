/**
 * @file
 * Umbrella header: the SolarCore public API.
 *
 * Pulls in everything a downstream user needs to build and simulate a
 * solar-energy-driven multi-core system:
 *
 *   pv::        single-diode PV cell/module/array models, MPP finder
 *   solar::     sites, weather model, daytime trace generation
 *   power::     DC/DC converter, network operating point, ATS, battery
 *   cpu::       DVFS table, interval perf model, Wattch-style power
 *               model, cores and the 8-core chip
 *   workload::  calibrated SPEC2000-like profiles and Table 5 mixes
 *   core::      the SolarCore controller, load-adaptation policies,
 *               fixed-budget optimizer and the day-simulation driver
 */

#ifndef SOLARCORE_CORE_SOLARCORE_HPP
#define SOLARCORE_CORE_SOLARCORE_HPP

#include "core/aggregate.hpp"
#include "core/controller.hpp"
#include "core/fixed_power.hpp"
#include "core/carbon.hpp"
#include "core/fleet.hpp"
#include "core/load_adapter.hpp"
#include "core/perturb_observe.hpp"
#include "core/simulation.hpp"
#include "core/tpr.hpp"
#include "cpu/cacti_lite.hpp"
#include "cpu/chip.hpp"
#include "cpu/cycle/cycle_core.hpp"
#include "cpu/thermal.hpp"
#include "cpu/vrm.hpp"
#include "power/ats.hpp"
#include "power/battery.hpp"
#include "power/converter.hpp"
#include "power/operating_point.hpp"
#include "power/psu.hpp"
#include "power/sensors.hpp"
#include "power/ups.hpp"
#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"
#include "pv/shading.hpp"
#include "solar/midc.hpp"
#include "solar/trace.hpp"
#include "util/thread_pool.hpp"
#include "workload/catalog.hpp"
#include "workload/multiprogram.hpp"

#endif // SOLARCORE_CORE_SOLARCORE_HPP
