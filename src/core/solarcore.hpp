/**
 * @file
 * Umbrella header: the SolarCore public API.
 *
 * Pulls in everything a downstream user needs to build and simulate a
 * solar-energy-driven multi-core system; a figure, tool, campaign,
 * daemon request or example runs every module it names:
 *
 *   pv::        PV cell/module/array models, MPP finder, shading
 *   solar::     sites, weather model, daytime trace generation
 *   power::     DC/DC converter, network operating point, ATS, battery
 *   cpu::       DVFS table, interval perf and Wattch-style power models,
 *               thermal model, cores, the 8-core chip, cycle-level core
 *   workload::  calibrated SPEC2000-like profiles and Table 5 mixes
 *   core::      the SolarCore controller, load-adaptation policies,
 *               fixed-budget optimizer, day-simulation driver,
 *               aggregation, fleet and carbon accounting
 */

#ifndef SOLARCORE_CORE_SOLARCORE_HPP
#define SOLARCORE_CORE_SOLARCORE_HPP

#include "core/aggregate.hpp"
#include "core/controller.hpp"
#include "core/fixed_power.hpp"
#include "core/carbon.hpp"
#include "core/fleet.hpp"
#include "core/load_adapter.hpp"
#include "core/simulation.hpp"
#include "core/tpr.hpp"
#include "cpu/chip.hpp"
#include "cpu/cycle/cycle_core.hpp"
#include "cpu/thermal.hpp"
#include "power/ats.hpp"
#include "power/battery.hpp"
#include "power/converter.hpp"
#include "power/operating_point.hpp"
#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"
#include "pv/shading.hpp"
#include "solar/trace.hpp"
#include "util/thread_pool.hpp"
#include "workload/catalog.hpp"
#include "workload/multiprogram.hpp"

#endif // SOLARCORE_CORE_SOLARCORE_HPP
